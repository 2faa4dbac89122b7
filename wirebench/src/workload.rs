//! The three workloads: their sizes, traffic mixes and operation
//! schedules. Everything here is a pure function of the seed and the
//! generated data; the program under test sees only the resulting
//! requests.

use edna_util::rng::{Prng, Rng};

/// The disguise every workload applies.
pub const DISGUISE: &str = "Lobsters-GDPR";

/// Statement-cache-friendly story pool: the newest stories draw this
/// share of story and thread reads.
const HOT_STORIES: i64 = 100;
const HOT_SHARE: f64 = 0.8;

/// Logical time of the first policy tick in `mixed`; the policy's
/// `inactive_after` equals it, so tick `k` expires users whose
/// `last_login` (uniform in `0..1_000_000`) is below `(k + 1) * CUTOFF_STEP`.
pub const TICK_BASE: i64 = 1_000_000;
/// Cutoff advance per tick: about five newly eligible users per tick at
/// 2,000 users.
pub const CUTOFF_STEP: i64 = 2_500;
/// Row budget handed to each policy tick.
pub const TICK_BUDGET: usize = 64;
/// `mixed`'s writer ticks the policy in every this many of its slots
/// (twice a second at its rate), after an apply and its reveal twice
/// over ...
const TICK_EVERY: usize = 5;
/// ... and checkpoints in place of one of every this many ticks. Its
/// applies and reveals end before the next read is due, so the ticks
/// and checkpoints are what the reads queue behind: at about ten ticks
/// a round, enough reads overlap a writer for
/// `server.door_stall_p50_us`.
const CHECKPOINT_EVERY: usize = 10;
/// Fresh users in `mixed` log in at or after this, and the ticks' cutoff
/// stops advancing there, so no tick expires a user the writer applies
/// or reveals.
pub const MIXED_FRESH_LOGIN: i64 = 100_000;

/// Which traffic a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Application reads and writes, no disguises.
    Browse,
    /// Applies and reveals at a deep disguise history.
    GdprChurn,
    /// Reads beside a low-rate writer that also ticks policies and
    /// checkpoints.
    Mixed,
}

/// Fixed parameters of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Generated Lobsters users (`LobstersConfig::sized`).
    pub users: usize,
    /// Users disguised through `Service::handle` during set-up.
    pub predisguised: usize,
    /// Whether set-up registers the expiration policy.
    pub policy: bool,
    /// Rounds per run, each on a set-up of its own: the open loop is
    /// split evenly across them, so it samples the host over the whole
    /// run, and `setup_s` is the median of their set-ups.
    pub rounds: usize,
    /// Open-loop arrival rate per stream, requests per second.
    pub rates: [f64; 2],
    /// Where stream 1's requests fall between stream 0's, as a share of
    /// stream 0's gap.
    pub offset: f64,
    /// Closed-loop capacity phase: operations per connection, once per
    /// round.
    pub closed_ops: [usize; 2],
    /// Untimed warm-up before each round's open loop, operations per
    /// stream.
    pub warmup_ops: usize,
    /// Operations the traced run replays at each depth.
    pub trace_ops: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::GdprChurn, Workload::Mixed];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::GdprChurn => "gdpr-churn",
            Workload::Mixed => "mixed",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's fixed parameters. Rates sit near a quarter of what
    /// the seed serves closed-loop on a quiet 2-core host, leaving room
    /// for a shared host's slower moments before queueing takes over.
    pub fn spec(self) -> Spec {
        match self {
            // An INSERT waits for the other connection's in-flight
            // SELECT to release the engine lock; at these rates that
            // happens to well under half of them even on a slow host, so
            // the INSERT median stays on the unblocked side.
            Workload::Browse => Spec {
                users: 2000,
                predisguised: 0,
                policy: false,
                rounds: 3,
                rates: [14.0, 14.0],
                offset: 0.5,
                closed_ops: [50, 50],
                warmup_ops: 15,
                trace_ops: 300,
            },
            // One open-loop stream: the door serializes disguises anyway,
            // and a reveal then always follows its own apply directly, so
            // its cost does not depend on how the streams interleaved.
            Workload::GdprChurn => Spec {
                users: 4000,
                predisguised: 1000,
                policy: false,
                rounds: 3,
                rates: [20.0, 0.0],
                offset: 0.0,
                closed_ops: [30, 30],
                warmup_ops: 6,
                trace_ops: 240,
            },
            // The writer's slots sit three quarters of the way between
            // two reads: a comment thread (about 50 ms here, twice
            // browse's) is over by then, so only a fixed share of writes
            // queues behind a read. Were the slots to drift across the
            // reads, that share would follow the host's speed, and the
            // writer's p50 would jump with it between the writes that
            // waited and those that did not.
            Workload::Mixed => Spec {
                users: 2000,
                predisguised: 500,
                policy: true,
                rounds: 3,
                rates: [10.0, 10.0],
                offset: 0.75,
                closed_ops: [40, 20],
                warmup_ops: 10,
                trace_ops: 300,
            },
        }
    }

    /// What `primary_*` and `secondary_*` measure in this workload.
    pub fn classes(self) -> (&'static str, &'static str) {
        match self {
            Workload::Browse => ("profile SELECT", "INSERT"),
            Workload::GdprChurn => ("apply", "reveal"),
            Workload::Mixed => ("profile SELECT", "reveal"),
        }
    }
}

/// The application's read shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReadKind {
    /// One story with its author (`stories ⨝ users` by story id).
    Story,
    /// A story's comments with authors (`comments ⨝ users`).
    Thread,
    /// One user's profile row.
    Profile,
    /// The 25 highest-scored stories.
    Frontpage,
}

impl ReadKind {
    /// Every read kind.
    pub const ALL: [ReadKind; 4] = [
        ReadKind::Story,
        ReadKind::Thread,
        ReadKind::Profile,
        ReadKind::Frontpage,
    ];

    /// Metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            ReadKind::Story => "story",
            ReadKind::Thread => "thread",
            ReadKind::Profile => "profile",
            ReadKind::Frontpage => "frontpage",
        }
    }
}

/// One request of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// An application `SELECT`.
    Read {
        /// Which page it serves.
        kind: ReadKind,
        /// The statement text.
        sql: String,
    },
    /// An application auto-commit `INSERT` (a vote or a comment).
    Write {
        /// The statement text.
        sql: String,
    },
    /// `Lobsters-GDPR` for one user, with an idempotency key.
    Apply {
        /// The departing user.
        user: i64,
        /// The `idem` header.
        idem: String,
    },
    /// Reveals the disguise applied by an earlier operation of the same
    /// stream, presenting its capability.
    Reveal {
        /// Id of the `Apply` operation whose disguise to reveal.
        of: usize,
        /// That apply's user (for the end-of-run checks).
        user: i64,
    },
    /// `Service::policy_tick_at(now, Some(TICK_BUDGET))`.
    Tick {
        /// Logical time of the tick.
        now: i64,
    },
    /// `Service::checkpoint()`.
    Checkpoint,
}

/// The latency class an operation reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// A `SELECT` of the given kind.
    Read(ReadKind),
    /// An application `INSERT`.
    Write,
    /// A wire `apply`.
    Apply,
    /// A wire `reveal`.
    Reveal,
    /// A policy tick.
    Tick,
    /// A checkpoint.
    Checkpoint,
}

impl Op {
    /// The class this operation's latency is reported under.
    pub fn class(&self) -> Class {
        match self {
            Op::Read { kind, .. } => Class::Read(*kind),
            Op::Write { .. } => Class::Write,
            Op::Apply { .. } => Class::Apply,
            Op::Reveal { .. } => Class::Reveal,
            Op::Tick { .. } => Class::Tick,
            Op::Checkpoint => Class::Checkpoint,
        }
    }
}

/// An operation with its stream (connection) and due time.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Unique within the run; the request id shared across replays.
    pub id: usize,
    /// Which generator thread (and connection) sends it.
    pub stream: usize,
    /// When it is due, in microseconds after the phase starts.
    pub due_us: u64,
    /// The request.
    pub op: Op,
}

/// Facts about the generated data the schedules draw from.
#[derive(Debug, Clone)]
pub struct Population {
    /// All user ids.
    pub users: Vec<i64>,
    /// Story ids in creation order (newest last).
    pub stories: Vec<i64>,
    /// Users not disguised at set-up, in the seeded order in which the
    /// workload disguises them.
    pub fresh: Vec<i64>,
}

/// A position in a stream's mix, before its story, user or SQL is drawn.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Read(ReadKind),
    Write,
    Apply,
    Reveal,
}

/// One round of browse's mix: 35% story page, 25% comment thread, 25%
/// profile, 5% front page and 10% writes.
const BROWSE_MIX: [(Slot, usize); 5] = [
    (Slot::Read(ReadKind::Story), 7),
    (Slot::Read(ReadKind::Thread), 5),
    (Slot::Read(ReadKind::Profile), 5),
    (Slot::Read(ReadKind::Frontpage), 1),
    (Slot::Write, 2),
];

/// Builds schedules phase after phase, handing out fresh users and ids
/// so no two operations of a run collide. A workload's fresh users are
/// finite: a schedule that would need more fails.
pub struct Planner {
    workload: Workload,
    rng: Prng,
    pop: Population,
    next_fresh: usize,
    next_id: usize,
    ticks: i64,
}

impl Planner {
    /// A planner for one round of a run; `seed` and `round` fix every
    /// choice it makes.
    pub fn new(workload: Workload, seed: u64, round: u64, pop: Population) -> Planner {
        let round_mix = round.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Planner {
            workload,
            rng: Prng::seed_from_u64((seed ^ 0x7769_7265_6265_6e63).wrapping_add(round_mix)),
            pop,
            next_fresh: 0,
            next_id: 0,
            ticks: 0,
        }
    }

    /// An open-loop schedule spanning `seconds`: each stream sends at
    /// its fixed rate, stream 1 `offset` of a gap behind stream 0;
    /// `mixed`'s writer stream gives one slot in five to a policy tick,
    /// and one tick in ten to a checkpoint.
    pub fn open_loop(&mut self, seconds: f64) -> Result<Vec<Scheduled>, String> {
        let spec = self.workload.spec();
        let phase = [0.0, spec.offset * 1e6 / spec.rates[0]];
        let mut out = Vec::new();
        for (stream, (rate, start)) in spec.rates.into_iter().zip(phase).enumerate() {
            let n = (rate * seconds).round() as usize;
            let gap = 1e6 / rate;
            for i in 0..n {
                let due = (start + gap * i as f64) as u64;
                let fixed = match (self.workload, stream) {
                    (Workload::Mixed, 1) if i % TICK_EVERY == TICK_EVERY - 1 => {
                        if (i / TICK_EVERY) % CHECKPOINT_EVERY == CHECKPOINT_EVERY / 2 {
                            Some(Op::Checkpoint)
                        } else {
                            Some(Op::Tick { now: 0 })
                        }
                    }
                    _ => None,
                };
                out.push((stream, due, fixed));
            }
        }
        out.sort_by_key(|(stream, due, _)| (*due, *stream));
        self.fill(out)
    }

    /// A closed-loop (or warm-up) batch: `per_stream[s]` operations of
    /// the workload's mix on stream `s`, all due at once, no ticks or
    /// checkpoints.
    pub fn batch(&mut self, per_stream: [usize; 2]) -> Result<Vec<Scheduled>, String> {
        let mut out = Vec::new();
        for i in 0..per_stream[0].max(per_stream[1]) {
            for (stream, &n) in per_stream.iter().enumerate() {
                if i < n {
                    out.push((stream, 0, None));
                }
            }
        }
        self.fill(out)
    }

    fn fill(&mut self, slots: Vec<(usize, u64, Option<Op>)>) -> Result<Vec<Scheduled>, String> {
        // Applies each stream may still reveal: (op id, user).
        let mut open: [Vec<(usize, i64)>; 2] = [Vec::new(), Vec::new()];
        // Each phase deals every stream's mix from a fresh deck, so its
        // shares are exact rather than drawn.
        let mut decks: [Vec<Slot>; 2] = [Vec::new(), Vec::new()];
        let mut out = Vec::with_capacity(slots.len());
        for (stream, due_us, fixed) in slots {
            let id = self.next_id;
            self.next_id += 1;
            let op = match fixed {
                Some(Op::Tick { .. }) => {
                    let now = TICK_BASE + (self.ticks * CUTOFF_STEP).min(MIXED_FRESH_LOGIN);
                    self.ticks += 1;
                    Op::Tick { now }
                }
                Some(op) => op,
                None => {
                    if decks[stream].is_empty() {
                        decks[stream] = self.deal(stream);
                    }
                    let slot = decks[stream].pop().expect("a dealt deck is not empty");
                    self.draw(slot, id, &mut open[stream])?
                }
            };
            out.push(Scheduled {
                id,
                stream,
                due_us,
                op,
            });
        }
        Ok(out)
    }

    /// One round of a stream's mix, in the order it is sent (last
    /// first). Application traffic is shuffled; the disguise writers
    /// repeat apply, apply, reveal (`gdpr-churn`) or apply, reveal
    /// (`mixed`), so each reveal undoes the apply just before it — a user
    /// returning within a grace period — and its cost does not drift with
    /// how many disguises were applied after it. `mixed`'s four such
    /// slots between two ticks hold two whole pairs: a tick between an
    /// apply and its reveal adds history the reveal walks back over, and
    /// made a third of the reveals 2–4 times slower.
    fn deal(&mut self, stream: usize) -> Vec<Slot> {
        let shares = match (self.workload, stream) {
            (Workload::Browse, _) => &BROWSE_MIX[..],
            // The same reads, without browse's writes.
            (Workload::Mixed, 0) => &BROWSE_MIX[..4],
            (Workload::Mixed, _) => return vec![Slot::Reveal, Slot::Apply],
            _ => return vec![Slot::Reveal, Slot::Apply, Slot::Apply],
        };
        let mut deck: Vec<Slot> = shares
            .iter()
            .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
            .collect();
        for i in (1..deck.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            deck.swap(i, j);
        }
        deck
    }

    fn draw(&mut self, slot: Slot, id: usize, open: &mut Vec<(usize, i64)>) -> Result<Op, String> {
        Ok(match slot {
            Slot::Read(kind) => self.read(kind),
            Slot::Write => self.write(id),
            Slot::Reveal => {
                let (of, user) = open.pop().expect("a reveal follows its stream's applies");
                Op::Reveal { of, user }
            }
            Slot::Apply => {
                let user = self.fresh_user()?;
                open.push((id, user));
                Op::Apply {
                    user,
                    idem: format!("wirebench-{id}"),
                }
            }
        })
    }

    fn fresh_user(&mut self) -> Result<i64, String> {
        let fresh = &self.pop.fresh;
        let user = *fresh.get(self.next_fresh).ok_or_else(|| {
            format!(
                "the run needs more than the {} users {} can disguise; use a shorter --seconds",
                fresh.len(),
                self.workload.name()
            )
        })?;
        self.next_fresh += 1;
        Ok(user)
    }

    fn story(&mut self) -> i64 {
        let stories = &self.pop.stories;
        let hot = (HOT_STORIES as usize).min(stories.len());
        if self.rng.gen_bool(HOT_SHARE) {
            stories[stories.len() - 1 - self.rng.gen_range(0..hot)]
        } else {
            stories[self.rng.gen_range(0..stories.len())]
        }
    }

    fn user(&mut self) -> i64 {
        self.pop.users[self.rng.gen_range(0..self.pop.users.len())]
    }

    /// A read of the given kind, on a drawn story or user.
    fn read(&mut self, kind: ReadKind) -> Op {
        let sql = match kind {
            ReadKind::Story => story_sql(self.story()),
            ReadKind::Thread => thread_sql(self.story()),
            ReadKind::Profile => profile_sql(self.user()),
            ReadKind::Frontpage => FRONTPAGE_SQL.to_string(),
        };
        Op::Read { kind, sql }
    }

    fn write(&mut self, id: usize) -> Op {
        let user = self.user();
        let story = self.story();
        let sql = if self.rng.gen_bool(0.5) {
            format!("INSERT INTO votes (user_id, story_id, vote) VALUES ({user}, {story}, 1)")
        } else {
            format!(
                "INSERT INTO comments (user_id, story_id, comment, score, created_at) \
                 VALUES ({user}, {story}, 'wirebench comment {id}', 1, 0)"
            )
        };
        Op::Write { sql }
    }
}

/// The front page: deterministic order, so wire and in-process agree.
pub const FRONTPAGE_SQL: &str =
    "SELECT id, title, score FROM stories ORDER BY score DESC, id LIMIT 25";

/// The story page.
pub fn story_sql(story: i64) -> String {
    format!(
        "SELECT s.id, s.title, s.url, s.score, u.username FROM stories s \
         JOIN users u ON s.user_id = u.id WHERE s.id = {story}"
    )
}

/// The comment thread.
pub fn thread_sql(story: i64) -> String {
    format!(
        "SELECT c.id, c.comment, c.score, u.username FROM comments c \
         JOIN users u ON c.user_id = u.id WHERE c.story_id = {story} ORDER BY c.id"
    )
}

/// The profile page.
pub fn profile_sql(user: i64) -> String {
    format!("SELECT id, username, karma, about, last_login FROM users WHERE id = {user}")
}

/// The expiration policy `mixed` registers.
pub fn policy_dsl() -> String {
    format!(
        "policy_name: \"wirebench-expire\"\n\
         kind: expiration\n\
         cadence: 1\n\
         disguise: \"{DISGUISE}\"\n\
         inactive_after: {TICK_BASE}\n\
         user_query: \"SELECT id FROM users WHERE last_login < $CUTOFF AND deleted_at IS NULL\"\n"
    )
}

/// A seeded shuffle (Fisher–Yates).
pub fn shuffle(xs: &mut [i64], seed: u64) {
    let mut rng = Prng::seed_from_u64(seed ^ 0x7368_7566_666c_6521);
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop() -> Population {
        Population {
            users: (1..=2000).collect(),
            stories: (1..=4000).collect(),
            fresh: (1..=2000).collect(),
        }
    }

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let plan = |seed, round| {
            Planner::new(Workload::Browse, seed, round, pop())
                .open_loop(2.0)
                .unwrap()
        };
        let (a, b, c) = (plan(7, 0), plan(7, 0), plan(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, plan(7, 1));
        let rates = Workload::Browse.spec().rates;
        assert_eq!(a.len(), ((rates[0] + rates[1]) * 2.0) as usize);
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us));
    }

    #[test]
    fn reveals_follow_their_own_streams_applies() {
        let ops = Planner::new(Workload::GdprChurn, 3, 0, pop())
            .open_loop(60.0)
            .unwrap();
        let mut applied = std::collections::HashMap::new();
        let mut reveals = 0;
        for s in &ops {
            match &s.op {
                Op::Apply { user, .. } => {
                    applied.insert(s.id, (s.stream, *user));
                }
                Op::Reveal { of, user } => {
                    assert_eq!(applied.remove(of), Some((s.stream, *user)));
                    reveals += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // Exactly two applies per reveal; half the applies stay.
        assert_eq!(applied.len(), reveals);
    }

    #[test]
    fn every_round_of_the_mix_has_its_exact_shares() {
        let ops = Planner::new(Workload::Browse, 5, 0, pop())
            .batch([40, 40])
            .unwrap();
        for stream in 0..2 {
            let mut counts = std::collections::BTreeMap::new();
            for s in ops.iter().filter(|s| s.stream == stream) {
                *counts.entry(s.op.class()).or_insert(0) += 1;
            }
            // Two rounds of 7 story, 5 thread, 5 profile, 1 front page
            // and 2 writes per stream.
            let want = [
                (Class::Read(ReadKind::Story), 14),
                (Class::Read(ReadKind::Thread), 10),
                (Class::Read(ReadKind::Profile), 10),
                (Class::Read(ReadKind::Frontpage), 2),
                (Class::Write, 4),
            ];
            assert_eq!(counts, want.into_iter().collect());
        }
    }

    #[test]
    fn a_schedule_longer_than_the_fresh_users_last_fails() {
        let small = Population {
            fresh: (1..=10).collect(),
            ..pop()
        };
        let mut p = Planner::new(Workload::GdprChurn, 1, 0, small);
        let err = p.open_loop(60.0).unwrap_err();
        assert!(err.contains("more than the 10 users"), "{err}");
    }

    #[test]
    fn mixed_ticks_advance_and_users_are_never_reused() {
        let mut p = Planner::new(Workload::Mixed, 1, 0, pop());
        let warm = p.batch([5, 5]).unwrap();
        let ops = p.open_loop(12.0).unwrap();
        let ticks: Vec<i64> = ops
            .iter()
            .filter_map(|s| match s.op {
                Op::Tick { now } => Some(now),
                _ => None,
            })
            .collect();
        assert_eq!(ticks.len(), 22);
        assert!(ticks.windows(2).all(|w| w[1] - w[0] == CUTOFF_STEP));
        // A long run's cutoff stops short of the writer's users.
        let long = Planner::new(Workload::Mixed, 1, 0, pop())
            .open_loop(90.0)
            .unwrap();
        let last = long.iter().rev().find_map(|s| match s.op {
            Op::Tick { now } => Some(now),
            _ => None,
        });
        assert_eq!(last, Some(TICK_BASE + MIXED_FRESH_LOGIN));
        let checkpoints = ops.iter().filter(|s| s.op == Op::Checkpoint).count();
        assert_eq!(checkpoints, 2);
        // No tick or checkpoint falls between an apply and its reveal.
        let writer: Vec<&Scheduled> = ops.iter().filter(|s| s.stream == 1).collect();
        for pair in writer.windows(2) {
            if let Op::Reveal { of, .. } = pair[1].op {
                assert_eq!(of, pair[0].id);
            }
        }
        let mut users = std::collections::HashSet::new();
        for s in warm.iter().chain(&ops) {
            if let Op::Apply { user, .. } = s.op {
                assert!(users.insert(user), "user {user} applied twice");
            }
            if s.stream == 0 {
                assert!(matches!(s.op, Op::Read { .. }));
            }
        }
    }
}
