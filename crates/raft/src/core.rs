//! A compact, correct Raft core: leader election, log replication, and
//! commit tracking.
//!
//! Canopus (§4.3) uses Raft *within a super-leaf* as its software reliable
//! broadcast: each node leads its own single-purpose Raft group whose
//! followers are its super-leaf peers. This module implements the group
//! machinery; [`crate::broadcast`] assembles the per-node groups into the
//! super-leaf broadcast primitive.
//!
//! The implementation is sans-IO and tick-driven: the host process calls
//! [`RaftCore::tick`] periodically and [`RaftCore::handle`] for every
//! incoming [`RaftMsg`]; both push outbound messages into a caller-provided
//! buffer. Committed entries are drained with [`RaftCore::take_delivered`].
//!
//! Standard Raft details implemented here: randomized election timeouts,
//! vote up-to-dateness checks, the AppendEntries consistency check with
//! conflict truncation, commit only of current-term entries by counting
//! replicas, and a no-op entry appended on leadership change so earlier-term
//! entries commit promptly.

use bytes::{Bytes, BytesMut};
use canopus_net::wire::{Wire, WireError, WireRead};
use canopus_sim::{Dur, NodeId, Time};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a Raft group. In super-leaf broadcast, the group id is the
/// owner node's id.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

impl Wire for GroupId {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(GroupId(u32::decode(buf)?))
    }
}

/// One replicated log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Term in which the entry was appended by a leader.
    pub term: u64,
    /// Opaque command payload. Empty payloads are leadership no-ops and are
    /// not delivered to the host.
    pub data: Bytes,
}

impl Wire for Entry {
    fn encode(&self, buf: &mut BytesMut) {
        self.term.encode(buf);
        self.data.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Entry {
            term: u64::decode(buf)?,
            data: Bytes::decode(buf)?,
        })
    }
}

/// Raft protocol messages for one group.
#[derive(Clone, Debug, PartialEq)]
pub enum RaftMsg {
    /// Candidate solicits a vote.
    RequestVote {
        /// Group this message belongs to.
        group: GroupId,
        /// Candidate's term.
        term: u64,
        /// Index of the candidate's last log entry.
        last_log_index: u64,
        /// Term of the candidate's last log entry.
        last_log_term: u64,
    },
    /// Response to `RequestVote`.
    VoteReply {
        /// Group this message belongs to.
        group: GroupId,
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat / commit notification).
    AppendEntries {
        /// Group this message belongs to.
        group: GroupId,
        /// Leader's term.
        term: u64,
        /// Index of the entry immediately preceding `entries`.
        prev_index: u64,
        /// Term of the entry at `prev_index`.
        prev_term: u64,
        /// Entries to append (may be empty).
        entries: Vec<Entry>,
        /// Leader's commit index.
        commit: u64,
    },
    /// Response to `AppendEntries`.
    AppendReply {
        /// Group this message belongs to.
        group: GroupId,
        /// Follower's current term.
        term: u64,
        /// Whether the consistency check passed and entries were appended.
        success: bool,
        /// Follower's highest matching index when `success`, else the
        /// follower's hint for where to back up to.
        match_index: u64,
    },
}

impl RaftMsg {
    /// The group this message targets.
    pub fn group(&self) -> GroupId {
        match self {
            RaftMsg::RequestVote { group, .. }
            | RaftMsg::VoteReply { group, .. }
            | RaftMsg::AppendEntries { group, .. }
            | RaftMsg::AppendReply { group, .. } => *group,
        }
    }

    /// Approximate encoded size, used for network modelling.
    pub fn wire_size(&self) -> usize {
        match self {
            RaftMsg::RequestVote { .. } => 29,
            RaftMsg::VoteReply { .. } => 14,
            RaftMsg::AppendEntries { entries, .. } => {
                33 + entries.iter().map(|e| 12 + e.data.len()).sum::<usize>()
            }
            RaftMsg::AppendReply { .. } => 22,
        }
    }
}

impl Wire for RaftMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            RaftMsg::RequestVote {
                group,
                term,
                last_log_index,
                last_log_term,
            } => {
                0u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                last_log_index.encode(buf);
                last_log_term.encode(buf);
            }
            RaftMsg::VoteReply {
                group,
                term,
                granted,
            } => {
                1u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                granted.encode(buf);
            }
            RaftMsg::AppendEntries {
                group,
                term,
                prev_index,
                prev_term,
                entries,
                commit,
            } => {
                2u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                prev_index.encode(buf);
                prev_term.encode(buf);
                entries.encode(buf);
                commit.encode(buf);
            }
            RaftMsg::AppendReply {
                group,
                term,
                success,
                match_index,
            } => {
                3u8.encode(buf);
                group.encode(buf);
                term.encode(buf);
                success.encode(buf);
                match_index.encode(buf);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        match buf.read_u8()? {
            0 => Ok(RaftMsg::RequestVote {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                last_log_index: u64::decode(buf)?,
                last_log_term: u64::decode(buf)?,
            }),
            1 => Ok(RaftMsg::VoteReply {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                granted: bool::decode(buf)?,
            }),
            2 => Ok(RaftMsg::AppendEntries {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                prev_index: u64::decode(buf)?,
                prev_term: u64::decode(buf)?,
                entries: Vec::<Entry>::decode(buf)?,
                commit: u64::decode(buf)?,
            }),
            3 => Ok(RaftMsg::AppendReply {
                group: GroupId::decode(buf)?,
                term: u64::decode(buf)?,
                success: bool::decode(buf)?,
                match_index: u64::decode(buf)?,
            }),
            _ => Err(WireError::Invalid("raft msg tag")),
        }
    }
}

/// Raft timing parameters. Defaults suit an intra-rack deployment where the
/// one-way latency is tens of microseconds.
#[derive(Copy, Clone, Debug)]
pub struct RaftConfig {
    /// Leader sends an empty AppendEntries if idle this long.
    pub heartbeat_interval: Dur,
    /// Minimum follower election timeout.
    pub election_timeout_min: Dur,
    /// Maximum follower election timeout.
    pub election_timeout_max: Dur,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            heartbeat_interval: Dur::millis(2),
            election_timeout_min: Dur::millis(10),
            election_timeout_max: Dur::millis(20),
        }
    }
}

/// The role a peer currently plays in its group.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Role {
    /// Accepts entries from the leader.
    Follower,
    /// Soliciting votes after an election timeout.
    Candidate,
    /// Replicating entries to followers.
    Leader,
}

/// Outbound message buffer: `(destination, message)` pairs.
pub type Outbox = Vec<(NodeId, RaftMsg)>;

/// A single Raft group member.
#[derive(Debug)]
pub struct RaftCore {
    cfg: RaftConfig,
    group: GroupId,
    me: NodeId,
    members: Vec<NodeId>,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    votes: BTreeSet<NodeId>,
    /// Log entries; `log[i]` has index `i + 1`.
    log: Vec<Entry>,
    commit_index: u64,
    delivered: u64,
    election_deadline: Time,
    next_heartbeat: Time,
    next_index: BTreeMap<NodeId, u64>,
    match_index: BTreeMap<NodeId, u64>,
}

impl RaftCore {
    /// Creates a member of `group`. If `initial_leader` is true the node
    /// boots as leader of term 1 (used by super-leaf broadcast groups,
    /// where each node starts as the leader of its own group, §4.3);
    /// otherwise it boots as a follower that expects term-1 traffic.
    pub fn new(
        group: GroupId,
        me: NodeId,
        members: Vec<NodeId>,
        cfg: RaftConfig,
        initial_leader: bool,
        now: Time,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(members.contains(&me), "members must include self");
        assert!(!members.is_empty());
        let mut sorted = members;
        sorted.sort_unstable();
        sorted.dedup();
        let mut core = RaftCore {
            cfg,
            group,
            me,
            members: sorted,
            role: Role::Follower,
            term: 1,
            voted_for: None,
            votes: BTreeSet::new(),
            log: Vec::new(),
            commit_index: 0,
            delivered: 0,
            election_deadline: Time::ZERO,
            next_heartbeat: Time::ZERO,
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
        };
        if initial_leader {
            core.become_leader(now);
        } else {
            core.reset_election_deadline(now, rng);
        }
        core
    }

    /// This member's durable state — the fields Raft requires to survive a
    /// crash (current term, vote, log). Volatile state (commit index,
    /// delivery cursor, role) is re-derived after recovery.
    pub fn persistent_state(&self) -> (u64, Option<NodeId>, Vec<Entry>) {
        (self.term, self.voted_for, self.log.clone())
    }

    /// Rebuilds a member from recovered durable state. The node boots as a
    /// follower; its committed entries re-deliver through the normal commit
    /// path once a leader advances its commit index, so the host replays
    /// them into its state machine exactly once.
    pub fn restore(
        group: GroupId,
        me: NodeId,
        members: Vec<NodeId>,
        cfg: RaftConfig,
        now: Time,
        rng: &mut SmallRng,
        term: u64,
        voted_for: Option<NodeId>,
        log: Vec<Entry>,
    ) -> Self {
        let mut core = RaftCore::new(group, me, members, cfg, false, now, rng);
        core.term = term.max(1);
        core.voted_for = voted_for;
        core.log = log;
        core.reset_election_deadline(now, rng);
        core
    }

    /// This member's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Current commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit_index
    }

    /// Number of entries in the log.
    pub fn log_len(&self) -> u64 {
        self.log.len() as u64
    }

    /// Whether this member currently leads the group.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// Group members (sorted).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    fn last_log_index(&self) -> u64 {
        self.log.len() as u64
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn term_at(&self, index: u64) -> u64 {
        if index == 0 {
            0
        } else {
            self.log[(index - 1) as usize].term
        }
    }

    fn reset_election_deadline(&mut self, now: Time, rng: &mut SmallRng) {
        let min = self.cfg.election_timeout_min.as_nanos();
        let max = self.cfg.election_timeout_max.as_nanos().max(min + 1);
        let timeout = Dur::nanos(rng.gen_range(min..max));
        self.election_deadline = now + timeout;
    }

    fn become_leader(&mut self, now: Time) {
        self.role = Role::Leader;
        self.next_index.clear();
        self.match_index.clear();
        let next = self.last_log_index() + 1;
        for &peer in &self.members {
            if peer != self.me {
                self.next_index.insert(peer, next);
                self.match_index.insert(peer, 0);
            }
        }
        self.next_heartbeat = now; // heartbeat immediately

        // Commit entries from prior terms by appending a no-op in our term
        // (Raft §5.4.2). Skipped for a fresh log: there is nothing to flush.
        if !self.log.is_empty() {
            self.log.push(Entry {
                term: self.term,
                data: Bytes::new(),
            });
        }
        self.recompute_commit();
    }

    fn become_follower(&mut self, term: u64, now: Time, rng: &mut SmallRng) {
        self.role = Role::Follower;
        self.term = term;
        self.voted_for = None;
        self.votes.clear();
        self.reset_election_deadline(now, rng);
    }

    /// Appends a command to the log. Returns its index, or `None` if this
    /// member is not currently the leader (callers should surface the error
    /// to the proposer; super-leaf broadcast never proposes to groups it
    /// does not own).
    pub fn propose(&mut self, data: Bytes, now: Time, out: &mut Outbox) -> Option<u64> {
        if self.role != Role::Leader {
            return None;
        }
        assert!(!data.is_empty(), "empty payloads are reserved for no-ops");
        self.log.push(Entry {
            term: self.term,
            data,
        });
        let index = self.last_log_index();
        self.broadcast_appends(now, out);
        // A single-member group commits immediately.
        self.recompute_commit();
        Some(index)
    }

    /// Sends AppendEntries to every follower, tailored to its `next_index`.
    fn broadcast_appends(&mut self, now: Time, out: &mut Outbox) {
        let peers: Vec<NodeId> = self
            .members
            .iter()
            .copied()
            .filter(|&p| p != self.me)
            .collect();
        for peer in peers {
            self.send_append(peer, out);
        }
        self.next_heartbeat = now + self.cfg.heartbeat_interval;
    }

    fn send_append(&mut self, peer: NodeId, out: &mut Outbox) {
        let next = *self.next_index.get(&peer).unwrap_or(&1);
        let prev_index = next - 1;
        let prev_term = self.term_at(prev_index);
        let entries: Vec<Entry> = self.log[(next - 1) as usize..].to_vec();
        out.push((
            peer,
            RaftMsg::AppendEntries {
                group: self.group,
                term: self.term,
                prev_index,
                prev_term,
                entries,
                commit: self.commit_index,
            },
        ));
    }

    /// Advances time-based behaviour: election timeouts and heartbeats.
    pub fn tick(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        match self.role {
            Role::Leader => {
                if now >= self.next_heartbeat {
                    self.broadcast_appends(now, out);
                }
            }
            Role::Follower | Role::Candidate => {
                if now >= self.election_deadline && self.members.len() > 1 {
                    self.start_election(now, rng, out);
                } else if self.members.len() == 1 && self.role == Role::Follower {
                    // Sole member: become leader directly.
                    self.term += 1;
                    self.become_leader(now);
                }
            }
        }
    }

    /// Immediately campaigns for leadership at a higher term. Used by a
    /// broadcast-group owner to reclaim its group after a transient
    /// usurpation (e.g. a false failure suspicion under CPU overload).
    pub fn force_election(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        if self.role != Role::Leader {
            self.start_election(now, rng, out);
        }
    }

    fn start_election(&mut self, now: Time, rng: &mut SmallRng, out: &mut Outbox) {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.me);
        self.votes.clear();
        self.votes.insert(self.me);
        self.reset_election_deadline(now, rng);
        if self.votes.len() >= self.majority() {
            self.become_leader(now);
            return;
        }
        for &peer in &self.members {
            if peer != self.me {
                out.push((
                    peer,
                    RaftMsg::RequestVote {
                        group: self.group,
                        term: self.term,
                        last_log_index: self.last_log_index(),
                        last_log_term: self.last_log_term(),
                    },
                ));
            }
        }
    }

    /// Handles one incoming message for this group.
    pub fn handle(
        &mut self,
        from: NodeId,
        msg: RaftMsg,
        now: Time,
        rng: &mut SmallRng,
        out: &mut Outbox,
    ) {
        debug_assert_eq!(msg.group(), self.group);
        match msg {
            RaftMsg::RequestVote {
                term,
                last_log_index,
                last_log_term,
                ..
            } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                }
                let up_to_date = (last_log_term, last_log_index)
                    >= (self.last_log_term(), self.last_log_index());
                let granted = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(from));
                if granted {
                    self.voted_for = Some(from);
                    self.reset_election_deadline(now, rng);
                }
                out.push((
                    from,
                    RaftMsg::VoteReply {
                        group: self.group,
                        term: self.term,
                        granted,
                    },
                ));
            }
            RaftMsg::VoteReply { term, granted, .. } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                    return;
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader(now);
                        self.broadcast_appends(now, out);
                    }
                }
            }
            RaftMsg::AppendEntries {
                term,
                prev_index,
                prev_term,
                entries,
                commit,
                ..
            } => {
                if term > self.term || (term == self.term && self.role == Role::Candidate) {
                    self.become_follower(term, now, rng);
                }
                if term < self.term {
                    out.push((
                        from,
                        RaftMsg::AppendReply {
                            group: self.group,
                            term: self.term,
                            success: false,
                            match_index: 0,
                        },
                    ));
                    return;
                }
                // term == self.term and we are a follower.
                self.reset_election_deadline(now, rng);
                // Consistency check.
                if prev_index > self.last_log_index() || self.term_at(prev_index) != prev_term {
                    // Hint: back up to our log end (simple but effective).
                    let hint = self.last_log_index().min(prev_index.saturating_sub(1));
                    out.push((
                        from,
                        RaftMsg::AppendReply {
                            group: self.group,
                            term: self.term,
                            success: false,
                            match_index: hint,
                        },
                    ));
                    return;
                }
                // Append, truncating conflicts.
                let mut index = prev_index;
                for entry in entries {
                    index += 1;
                    if index <= self.last_log_index() {
                        if self.term_at(index) != entry.term {
                            self.log.truncate((index - 1) as usize);
                            self.log.push(entry);
                        }
                        // else: already have it
                    } else {
                        self.log.push(entry);
                    }
                }
                // Raft's rule: commitIndex = min(leaderCommit, index of
                // last new entry).
                let new_commit = commit.min(index);
                if new_commit > self.commit_index {
                    self.commit_index = new_commit;
                }
                out.push((
                    from,
                    RaftMsg::AppendReply {
                        group: self.group,
                        term: self.term,
                        success: true,
                        match_index: index,
                    },
                ));
            }
            RaftMsg::AppendReply {
                term,
                success,
                match_index,
                ..
            } => {
                if term > self.term {
                    self.become_follower(term, now, rng);
                    return;
                }
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    self.match_index.insert(from, match_index);
                    self.next_index.insert(from, match_index + 1);
                    let old_commit = self.commit_index;
                    self.recompute_commit();
                    if self.commit_index > old_commit {
                        // Eagerly notify followers so they deliver without
                        // waiting for the next heartbeat (keeps super-leaf
                        // broadcast latency at ~1.5 RTT instead of +interval).
                        self.broadcast_appends(now, out);
                    }
                } else {
                    let next = self
                        .next_index
                        .get(&from)
                        .copied()
                        .unwrap_or(1)
                        .saturating_sub(1)
                        .max(1)
                        .min(match_index + 1);
                    self.next_index.insert(from, next.max(1));
                    self.send_append(from, out);
                }
            }
        }
    }

    /// Recomputes the commit index from match indices (leader only commits
    /// entries of its own term by counting, Raft §5.4.2).
    fn recompute_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let mut candidates: Vec<u64> = self
            .members
            .iter()
            .map(|&peer| {
                if peer == self.me {
                    self.last_log_index()
                } else {
                    *self.match_index.get(&peer).unwrap_or(&0)
                }
            })
            .collect();
        candidates.sort_unstable();
        // The majority-th highest match index is replicated on a majority.
        let majority_index = candidates[candidates.len() - self.majority()];
        if majority_index > self.commit_index && self.term_at(majority_index) == self.term {
            self.commit_index = majority_index;
        }
    }

    /// Drains newly committed entries, in log order, skipping no-ops.
    /// Each is `(index, payload)`.
    pub fn take_delivered(&mut self) -> Vec<(u64, Bytes)> {
        let mut out = Vec::new();
        while self.delivered < self.commit_index {
            self.delivered += 1;
            let entry = &self.log[(self.delivered - 1) as usize];
            if !entry.data.is_empty() {
                out.push((self.delivered, entry.data.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn trio(now: Time) -> (RaftCore, RaftCore, RaftCore, SmallRng) {
        let mut r = rng();
        let members = vec![NodeId(0), NodeId(1), NodeId(2)];
        let g = GroupId(0);
        let cfg = RaftConfig::default();
        let a = RaftCore::new(g, NodeId(0), members.clone(), cfg, true, now, &mut r);
        let b = RaftCore::new(g, NodeId(1), members.clone(), cfg, false, now, &mut r);
        let c = RaftCore::new(g, NodeId(2), members, cfg, false, now, &mut r);
        (a, b, c, r)
    }

    /// Synchronously shuttles messages between the three peers until quiet.
    fn pump(cores: &mut [&mut RaftCore], mut queue: Outbox, rng: &mut SmallRng, now: Time) {
        let mut rounds = 0;
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds < 1000, "message storm");
            let mut next = Outbox::new();
            for (to, msg) in queue.drain(..) {
                let from_sender = msg_sender(&msg, cores, to);
                let target = cores
                    .iter_mut()
                    .find(|c| c.me() == to)
                    .expect("destination exists");
                target.handle(from_sender, msg, now, rng, &mut next);
            }
            queue = next;
        }
    }

    /// Our tests route synchronously; infer senders by exclusion: messages
    /// destined to X from a group with leader semantics come from whoever
    /// could have sent them. For the simple pump we tag the leader/candidate
    /// by scanning. (Production code carries the sender on the wire.)
    fn msg_sender(msg: &RaftMsg, cores: &mut [&mut RaftCore], to: NodeId) -> NodeId {
        match msg {
            RaftMsg::AppendEntries { term, .. } | RaftMsg::RequestVote { term, .. } => cores
                .iter()
                .find(|c| c.term() == *term && c.me() != to && c.role() != Role::Follower)
                .map(|c| c.me())
                .unwrap_or(NodeId(0)),
            // Replies: sender is "the other" node; with three nodes and a
            // single active exchange this is unambiguous in these tests.
            _ => cores.iter().find(|c| c.me() != to).map(|c| c.me()).unwrap(),
        }
    }

    #[test]
    fn initial_leader_replicates_and_commits() {
        let now = Time::ZERO;
        let (mut a, mut b, mut c, mut r) = trio(now);
        let mut out = Outbox::new();
        let idx = a
            .propose(Bytes::from_static(b"x"), now, &mut out)
            .expect("leader proposes");
        assert_eq!(idx, 1);

        // Deliver appends to b and c; collect replies.
        let mut replies = Outbox::new();
        for (to, msg) in out.drain(..) {
            match to {
                NodeId(1) => b.handle(NodeId(0), msg, now, &mut r, &mut replies),
                NodeId(2) => c.handle(NodeId(0), msg, now, &mut r, &mut replies),
                other => panic!("unexpected dest {other}"),
            }
        }
        // First reply commits on the leader (majority of 3 = 2).
        let mut notify = Outbox::new();
        let (reply_to_a, msg) = replies.remove(0);
        assert_eq!(reply_to_a, NodeId(0));
        a.handle(NodeId(1), msg, now, &mut r, &mut notify);
        assert_eq!(a.commit_index(), 1);
        assert_eq!(a.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);

        // The eager commit notification lets followers deliver too.
        for (to, msg) in notify.drain(..) {
            let mut sink = Outbox::new();
            match to {
                NodeId(1) => b.handle(NodeId(0), msg, now, &mut r, &mut sink),
                NodeId(2) => c.handle(NodeId(0), msg, now, &mut r, &mut sink),
                other => panic!("unexpected dest {other}"),
            }
        }
        assert_eq!(b.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        assert_eq!(c.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
    }

    #[test]
    fn follower_rejects_gap_and_leader_backs_up() {
        let now = Time::ZERO;
        let (mut a, mut b, _c, mut r) = trio(now);
        let mut out = Outbox::new();
        // Leader appends two entries but we only deliver the *second* append
        // (simulating loss of the first).
        a.propose(Bytes::from_static(b"1"), now, &mut out);
        out.clear();
        a.propose(Bytes::from_static(b"2"), now, &mut out);
        // Craft: take the append destined to b; it has prev_index=0 and both
        // entries (since next_index for b is still 1) — so no gap. To force a
        // gap, pretend b's next_index advanced without b hearing anything:
        // send an append with prev_index=1 manually.
        let gap = RaftMsg::AppendEntries {
            group: GroupId(0),
            term: a.term(),
            prev_index: 1,
            prev_term: a.term(),
            entries: vec![Entry {
                term: a.term(),
                data: Bytes::from_static(b"2"),
            }],
            commit: 0,
        };
        let mut replies = Outbox::new();
        b.handle(NodeId(0), gap, now, &mut r, &mut replies);
        let (_, reply) = replies.pop().expect("reply");
        match reply {
            RaftMsg::AppendReply { success, .. } => assert!(!success),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn election_on_leader_silence() {
        let now = Time::ZERO;
        let (_a, mut b, mut c, mut r) = trio(now);
        // No traffic from the leader; advance past the election timeout.
        let later = now + Dur::millis(50);
        let mut out = Outbox::new();
        b.tick(later, &mut r, &mut out);
        // b should have started an election.
        assert_eq!(b.role(), Role::Candidate);
        let vote_reqs: Vec<_> = std::mem::take(&mut out);
        assert_eq!(vote_reqs.len(), 2);
        // c grants the vote.
        let mut replies = Outbox::new();
        let (_, req) = vote_reqs
            .into_iter()
            .find(|(to, _)| *to == NodeId(2))
            .unwrap();
        c.handle(NodeId(1), req, later, &mut r, &mut replies);
        let (_, reply) = replies.pop().unwrap();
        let mut out2 = Outbox::new();
        b.handle(NodeId(2), reply, later, &mut r, &mut out2);
        assert_eq!(b.role(), Role::Leader, "majority of 2 reached");
    }

    #[test]
    fn votes_denied_for_stale_log() {
        let now = Time::ZERO;
        let (mut a, mut b, _c, mut r) = trio(now);
        // Leader a commits an entry that b has.
        let mut out = Outbox::new();
        a.propose(Bytes::from_static(b"x"), now, &mut out);
        for (to, msg) in out.drain(..) {
            if to == NodeId(1) {
                let mut sink = Outbox::new();
                b.handle(NodeId(0), msg, now, &mut r, &mut sink);
            }
        }
        // A candidate with an empty log must not win b's vote.
        let stale = RaftMsg::RequestVote {
            group: GroupId(0),
            term: 5,
            last_log_index: 0,
            last_log_term: 0,
        };
        let mut replies = Outbox::new();
        b.handle(NodeId(2), stale, now, &mut r, &mut replies);
        let (_, reply) = replies.pop().unwrap();
        match reply {
            RaftMsg::VoteReply { granted, .. } => assert!(!granted),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn new_leader_completes_replication() {
        // a replicates entry to b only, then "fails". b must become leader
        // (it has the longer log) and bring c up to date — the §4.3 scenario
        // where a new leader completes incomplete broadcasts.
        let now = Time::ZERO;
        let (mut a, mut b, mut c, mut r) = trio(now);
        let mut out = Outbox::new();
        a.propose(Bytes::from_static(b"x"), now, &mut out);
        for (to, msg) in out.drain(..) {
            if to == NodeId(1) {
                let mut sink = Outbox::new();
                b.handle(NodeId(0), msg, now, &mut r, &mut sink);
            }
            // message to c is lost; a crashes now.
        }
        assert_eq!(b.log_len(), 1);
        assert_eq!(c.log_len(), 0);

        // b times out and wins the election against c.
        let later = now + Dur::millis(50);
        let mut out = Outbox::new();
        b.tick(later, &mut r, &mut out);
        let mut replies = Outbox::new();
        for (to, msg) in out.drain(..) {
            if to == NodeId(2) {
                c.handle(NodeId(1), msg, later, &mut r, &mut replies);
            }
        }
        let mut appends = Outbox::new();
        for (_, msg) in replies.drain(..) {
            b.handle(NodeId(2), msg, later, &mut r, &mut appends);
        }
        assert!(b.is_leader());

        // b's first appends carry the old entry plus b's no-op; shuttle
        // messages between b and c (a stays crashed) until quiet, after
        // which both must deliver "x".
        let mut queue: Outbox = appends;
        let mut rounds = 0;
        while !queue.is_empty() {
            rounds += 1;
            assert!(rounds < 100, "message storm between b and c");
            let mut next = Outbox::new();
            for (to, msg) in queue.drain(..) {
                match to {
                    NodeId(1) => b.handle(NodeId(2), msg, later, &mut r, &mut next),
                    NodeId(2) => c.handle(NodeId(1), msg, later, &mut r, &mut next),
                    _ => {} // messages to the crashed node are lost
                }
            }
            queue = next;
        }
        assert_eq!(b.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        assert_eq!(c.take_delivered(), vec![(1, Bytes::from_static(b"x"))]);
        let _ = pump; // silence unused in this configuration
        let _ = &mut a;
    }

    #[test]
    fn single_member_group_commits_instantly() {
        let mut r = rng();
        let g = GroupId(9);
        let mut solo = RaftCore::new(
            g,
            NodeId(5),
            vec![NodeId(5)],
            RaftConfig::default(),
            true,
            Time::ZERO,
            &mut r,
        );
        let mut out = Outbox::new();
        solo.propose(Bytes::from_static(b"only"), Time::ZERO, &mut out);
        assert!(out.is_empty());
        assert_eq!(
            solo.take_delivered(),
            vec![(1, Bytes::from_static(b"only"))]
        );
    }

    #[test]
    fn raft_msgs_round_trip_on_wire() {
        let msgs = vec![
            RaftMsg::RequestVote {
                group: GroupId(3),
                term: 7,
                last_log_index: 9,
                last_log_term: 6,
            },
            RaftMsg::VoteReply {
                group: GroupId(3),
                term: 7,
                granted: true,
            },
            RaftMsg::AppendEntries {
                group: GroupId(1),
                term: 2,
                prev_index: 4,
                prev_term: 2,
                entries: vec![
                    Entry {
                        term: 2,
                        data: Bytes::from_static(b"hello"),
                    },
                    Entry {
                        term: 2,
                        data: Bytes::new(),
                    },
                ],
                commit: 4,
            },
            RaftMsg::AppendReply {
                group: GroupId(1),
                term: 2,
                success: false,
                match_index: 3,
            },
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            let back = RaftMsg::from_bytes(bytes).expect("decode");
            assert_eq!(back, msg);
        }
    }
}
