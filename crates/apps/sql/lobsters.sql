-- Lobsters-like schema: 19 object types, modeled on the open-source
-- application's Rails schema (simplified column sets, same relationships).

CREATE TABLE users (
    id INT PRIMARY KEY AUTO_INCREMENT,
    username TEXT NOT NULL UNIQUE PII,
    email TEXT PII,
    password_digest TEXT PII,
    about TEXT PII,
    karma INT NOT NULL DEFAULT 0,
    is_admin BOOL NOT NULL DEFAULT FALSE,
    is_moderator BOOL NOT NULL DEFAULT FALSE,
    banned_at INT,
    deleted_at INT,
    disabled_invite_at INT,
    last_login INT NOT NULL DEFAULT 0,
    invited_by_user_id INT,
    FOREIGN KEY (invited_by_user_id) REFERENCES users(id)
);

CREATE TABLE tags (
    id INT PRIMARY KEY AUTO_INCREMENT,
    tag TEXT NOT NULL UNIQUE,
    description TEXT,
    privileged BOOL NOT NULL DEFAULT FALSE
);

CREATE TABLE stories (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    title TEXT NOT NULL,
    url TEXT,
    description TEXT,
    score INT NOT NULL DEFAULT 1,
    is_expired BOOL NOT NULL DEFAULT FALSE,
    created_at INT NOT NULL DEFAULT 0,
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE comments (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    story_id INT NOT NULL,
    parent_comment_id INT,
    comment TEXT NOT NULL,
    score INT NOT NULL DEFAULT 1,
    is_deleted BOOL NOT NULL DEFAULT FALSE,
    created_at INT NOT NULL DEFAULT 0,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (parent_comment_id) REFERENCES comments(id) ON DELETE SET NULL
);

CREATE TABLE votes (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    story_id INT,
    comment_id INT,
    vote INT NOT NULL DEFAULT 1,
    reason TEXT,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (comment_id) REFERENCES comments(id) ON DELETE CASCADE
);

CREATE TABLE taggings (
    id INT PRIMARY KEY AUTO_INCREMENT,
    story_id INT NOT NULL,
    tag_id INT NOT NULL,
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (tag_id) REFERENCES tags(id)
);

CREATE TABLE messages (
    id INT PRIMARY KEY AUTO_INCREMENT,
    author_user_id INT NOT NULL,
    recipient_user_id INT NOT NULL,
    subject TEXT,
    body TEXT,
    has_been_read BOOL NOT NULL DEFAULT FALSE,
    deleted_by_author BOOL NOT NULL DEFAULT FALSE,
    deleted_by_recipient BOOL NOT NULL DEFAULT FALSE,
    FOREIGN KEY (author_user_id) REFERENCES users(id),
    FOREIGN KEY (recipient_user_id) REFERENCES users(id)
);

CREATE TABLE hats (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    granted_by_user_id INT,
    hat TEXT NOT NULL,
    link TEXT,
    doffed_at INT,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (granted_by_user_id) REFERENCES users(id)
);

CREATE TABLE hat_requests (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    hat TEXT NOT NULL,
    link TEXT,
    comment TEXT,
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE invitations (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    email TEXT PII,
    code TEXT,
    memo TEXT,
    used_at INT,
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE invitation_requests (
    id INT PRIMARY KEY AUTO_INCREMENT,
    name TEXT NOT NULL PII,
    email TEXT NOT NULL PII,
    memo TEXT,
    code TEXT,
    is_verified BOOL NOT NULL DEFAULT FALSE
);

CREATE TABLE hidden_stories (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    story_id INT NOT NULL,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE
);

CREATE TABLE saved_stories (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    story_id INT NOT NULL,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE
);

CREATE TABLE read_ribbons (
    id INT PRIMARY KEY AUTO_INCREMENT,
    user_id INT NOT NULL,
    story_id INT NOT NULL,
    updated_at INT NOT NULL DEFAULT 0,
    FOREIGN KEY (user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE
);

CREATE TABLE moderations (
    id INT PRIMARY KEY AUTO_INCREMENT,
    moderator_user_id INT,
    story_id INT,
    comment_id INT,
    user_id INT,
    action TEXT,
    reason TEXT,
    created_at INT NOT NULL DEFAULT 0,
    FOREIGN KEY (moderator_user_id) REFERENCES users(id),
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (comment_id) REFERENCES comments(id) ON DELETE CASCADE,
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE mod_notes (
    id INT PRIMARY KEY AUTO_INCREMENT,
    moderator_user_id INT NOT NULL,
    user_id INT NOT NULL,
    note TEXT,
    created_at INT NOT NULL DEFAULT 0,
    FOREIGN KEY (moderator_user_id) REFERENCES users(id),
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE suggested_titles (
    id INT PRIMARY KEY AUTO_INCREMENT,
    story_id INT NOT NULL,
    user_id INT NOT NULL,
    title TEXT NOT NULL,
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE suggested_taggings (
    id INT PRIMARY KEY AUTO_INCREMENT,
    story_id INT NOT NULL,
    tag_id INT NOT NULL,
    user_id INT NOT NULL,
    FOREIGN KEY (story_id) REFERENCES stories(id) ON DELETE CASCADE,
    FOREIGN KEY (tag_id) REFERENCES tags(id),
    FOREIGN KEY (user_id) REFERENCES users(id)
);

CREATE TABLE keystores (
    id INT PRIMARY KEY AUTO_INCREMENT,
    keyname TEXT NOT NULL UNIQUE,
    keyvalue INT NOT NULL DEFAULT 0
);
