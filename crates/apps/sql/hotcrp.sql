-- HotCRP-like schema: 25 object types, modeled on the real application's
-- MySQL schema (simplified column sets, same relationships).

CREATE TABLE ContactInfo (
    contactId INT PRIMARY KEY AUTO_INCREMENT,
    firstName TEXT NOT NULL PII,
    lastName TEXT NOT NULL PII,
    email TEXT UNIQUE PII,
    affiliation TEXT PII,
    password TEXT,
    collaborators TEXT PII,
    roles INT NOT NULL DEFAULT 0,
    disabled BOOL NOT NULL DEFAULT FALSE,
    lastLogin INT NOT NULL DEFAULT 0,
    defaultWatch INT NOT NULL DEFAULT 2
);

CREATE TABLE TopicArea (
    topicId INT PRIMARY KEY AUTO_INCREMENT,
    topicName TEXT NOT NULL
);

CREATE TABLE Paper (
    paperId INT PRIMARY KEY AUTO_INCREMENT,
    title TEXT NOT NULL,
    abstract TEXT,
    authorInformation TEXT,
    outcome INT NOT NULL DEFAULT 0,
    leadContactId INT,
    shepherdContactId INT,
    managerContactId INT,
    timeSubmitted INT NOT NULL DEFAULT 0,
    timeWithdrawn INT NOT NULL DEFAULT 0,
    FOREIGN KEY (leadContactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (shepherdContactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (managerContactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE PaperConflict (
    paperConflictId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    conflictType INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE Review (
    reviewId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    requestedBy INT,
    reviewType INT NOT NULL DEFAULT 1,
    reviewRound INT NOT NULL DEFAULT 0,
    overAllMerit INT NOT NULL DEFAULT 0,
    reviewerQualification INT NOT NULL DEFAULT 0,
    paperSummary TEXT,
    commentsToAuthor TEXT,
    commentsToPC TEXT,
    reviewSubmitted INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (requestedBy) REFERENCES ContactInfo(contactId)
);

CREATE TABLE ReviewPreference (
    prefId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    preference INT NOT NULL DEFAULT 0,
    expertise INT,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE ReviewRating (
    ratingId INT PRIMARY KEY AUTO_INCREMENT,
    reviewId INT NOT NULL,
    contactId INT NOT NULL,
    rating INT NOT NULL DEFAULT 0,
    FOREIGN KEY (reviewId) REFERENCES Review(reviewId) ON DELETE CASCADE,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE ReviewRequest (
    requestId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    email TEXT PII,
    reason TEXT,
    requestedBy INT,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (requestedBy) REFERENCES ContactInfo(contactId)
);

CREATE TABLE PaperReviewRefused (
    refusalId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    refusedBy INT,
    reason TEXT,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (refusedBy) REFERENCES ContactInfo(contactId)
);

CREATE TABLE PaperComment (
    commentId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    comment TEXT,
    commentType INT NOT NULL DEFAULT 0,
    timeModified INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE PaperTopic (
    paperTopicId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    topicId INT NOT NULL,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (topicId) REFERENCES TopicArea(topicId)
);

CREATE TABLE TopicInterest (
    interestId INT PRIMARY KEY AUTO_INCREMENT,
    contactId INT NOT NULL,
    topicId INT NOT NULL,
    interest INT NOT NULL DEFAULT 0,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (topicId) REFERENCES TopicArea(topicId)
);

CREATE TABLE PaperTag (
    tagId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    tag TEXT NOT NULL,
    tagIndex INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId)
);

CREATE TABLE PaperWatch (
    watchId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    contactId INT NOT NULL,
    watch INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE PaperStorage (
    paperStorageId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    mimetype TEXT NOT NULL DEFAULT 'application/pdf',
    size INT NOT NULL DEFAULT 0,
    timestamp INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId)
);

CREATE TABLE DocumentLink (
    linkId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    documentId INT NOT NULL,
    linkType INT NOT NULL DEFAULT 0,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId),
    FOREIGN KEY (documentId) REFERENCES PaperStorage(paperStorageId)
);

CREATE TABLE PaperOption (
    optionRowId INT PRIMARY KEY AUTO_INCREMENT,
    paperId INT NOT NULL,
    optionId INT NOT NULL,
    value INT NOT NULL DEFAULT 0,
    data TEXT,
    FOREIGN KEY (paperId) REFERENCES Paper(paperId)
);

CREATE TABLE ActionLog (
    logId INT PRIMARY KEY AUTO_INCREMENT,
    contactId INT,
    destContactId INT,
    paperId INT,
    action TEXT NOT NULL,
    ipaddr TEXT PII,
    timestamp INT NOT NULL DEFAULT 0,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (destContactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (paperId) REFERENCES Paper(paperId)
);

CREATE TABLE Capability (
    capabilityId INT PRIMARY KEY AUTO_INCREMENT,
    capabilityType INT NOT NULL DEFAULT 0,
    contactId INT NOT NULL,
    paperId INT,
    salt TEXT NOT NULL,
    timeExpires INT NOT NULL DEFAULT 0,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId),
    FOREIGN KEY (paperId) REFERENCES Paper(paperId)
);

CREATE TABLE ContactSession (
    sessionId INT PRIMARY KEY AUTO_INCREMENT,
    contactId INT NOT NULL,
    sessionData TEXT,
    timeUpdated INT NOT NULL DEFAULT 0,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE Formula (
    formulaId INT PRIMARY KEY AUTO_INCREMENT,
    name TEXT NOT NULL,
    expression TEXT NOT NULL,
    createdBy INT,
    FOREIGN KEY (createdBy) REFERENCES ContactInfo(contactId)
);

CREATE TABLE MailLog (
    mailId INT PRIMARY KEY AUTO_INCREMENT,
    recipients TEXT,
    paperIds TEXT,
    subject TEXT,
    emailBody TEXT,
    timestamp INT NOT NULL DEFAULT 0
);

CREATE TABLE Settings (
    settingId INT PRIMARY KEY AUTO_INCREMENT,
    name TEXT NOT NULL UNIQUE,
    value INT NOT NULL DEFAULT 0,
    data TEXT
);

CREATE TABLE PaperReviewArchive (
    archiveId INT PRIMARY KEY AUTO_INCREMENT,
    reviewId INT NOT NULL,
    contactId INT NOT NULL,
    overAllMerit INT NOT NULL DEFAULT 0,
    paperSummary TEXT,
    FOREIGN KEY (reviewId) REFERENCES Review(reviewId) ON DELETE CASCADE,
    FOREIGN KEY (contactId) REFERENCES ContactInfo(contactId)
);

CREATE TABLE DeletedContactInfo (
    deletedContactId INT PRIMARY KEY AUTO_INCREMENT,
    contactId INT NOT NULL,
    firstName TEXT PII,
    lastName TEXT PII,
    email TEXT PII,
    deletedAt INT NOT NULL DEFAULT 0
);
