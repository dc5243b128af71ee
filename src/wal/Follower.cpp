//===- wal/Follower.cpp - Follower relations over the commit stream ----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "wal/Follower.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <unistd.h>

using namespace crs;

//===----------------------------------------------------------------------===//
// WalTailer
//===----------------------------------------------------------------------===//

size_t WalTailer::poll(std::vector<WalRecord> &Out) {
  size_t Appended = 0;
  for (unsigned P = 0; P < Cursors.size(); ++P) {
    Cursor &C = Cursors[P];
    // Keep draining segments until one ends without a successor: the
    // flusher rotates between polls, and a poll must not stall behind
    // a sealed segment it already finished.
    for (;;) {
      std::vector<unsigned> Segs = listWalSegments(Dir, P);
      if (Segs.empty())
        break; // not created yet (no commit reached this partition)
      if (std::find(Segs.begin(), Segs.end(), C.Seg) == Segs.end()) {
        // The cursor's segment was checkpoint-pruned underneath us:
        // every record in it was consumed or checkpointed; resume at
        // the oldest surviving segment past it.
        auto Next = std::upper_bound(Segs.begin(), Segs.end(), C.Seg);
        if (Next == Segs.end())
          break;
        C.Seg = *Next;
        C.Off = 0;
      }
      // Whether a successor segment existed *before* we read: segment
      // sealing happens-before the successor file's creation, so a
      // successor visible now proves C.Seg is sealed and the read below
      // sees its every byte. (A post-read listing could witness a
      // rotation that raced past our read and skip its last batch.)
      auto NextSeg = std::upper_bound(Segs.begin(), Segs.end(), C.Seg);
      std::string Path = walSegmentPath(Dir, P, C.Seg);
      int Fd = ::open(Path.c_str(), O_RDONLY);
      if (Fd < 0)
        break;
      if (::lseek(Fd, static_cast<off_t>(C.Off), SEEK_SET) < 0) {
        ::close(Fd);
        break;
      }
      std::vector<uint8_t> Buf;
      uint8_t Chunk[1 << 16];
      for (;;) {
        ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0)
          break;
        Buf.insert(Buf.end(), Chunk, Chunk + N);
      }
      ::close(Fd);
      size_t Off = 0;
      WalRecord Rec;
      bool Torn = false;
      while (Off < Buf.size()) {
        size_t Used =
            walDecodeRecord(Buf.data() + Off, Buf.size() - Off, Rec);
        if (Used == 0) {
          Torn = true;
          break; // incomplete tail: the flusher is mid-append; next poll
        }
        Out.push_back(std::move(Rec));
        Rec = WalRecord();
        Off += Used;
        ++Appended;
      }
      C.Off += Off;
      if (Torn)
        break; // mid-append bytes only ever trail the active segment
      // Clean end of a provably sealed segment: roll to the successor.
      // No successor in the pre-read listing means this may be the
      // active segment — wait for more bytes (or for the next poll to
      // see the rotation).
      if (NextSeg == Segs.end())
        break;
      C.Seg = *NextSeg;
      C.Off = 0;
    }
  }
  return Appended;
}

//===----------------------------------------------------------------------===//
// FollowerRelation
//===----------------------------------------------------------------------===//

FollowerRelation::FollowerRelation(RepresentationConfig Config,
                                   CommitChannel &Channel,
                                   std::function<std::vector<Tuple>()> BF,
                                   Options O)
    : Replica(std::move(Config)), Ch(&Channel), Backfill(std::move(BF)),
      Opts(O) {
  Applier = std::thread([this] { applierLoop(); });
}

FollowerRelation::FollowerRelation(RepresentationConfig Config)
    : Replica(std::move(Config)) {}

FollowerRelation::~FollowerRelation() { stop(); }

void FollowerRelation::stop() {
  if (!Applier.joinable())
    return;
  Stop.store(true, std::memory_order_release);
  Applier.join();
}

void FollowerRelation::apply(const WalRecord &Rec) {
  for (const WalMutation &M : Rec.Muts) {
    if (M.Op == WalOp::Insert) {
      if (!Replica.insert(M.Full, Tuple()))
        Anomalies.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (Replica.remove(M.Full) == 0)
        Anomalies.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Publish the watermark *after* the mutations: a reader that sees
  // appliedSeq ≥ S observes every delivered mutation stamped ≤ S.
  uint64_t Prev = AppliedSeq.load(std::memory_order_relaxed);
  while (Prev < Rec.CommitSeq &&
         !AppliedSeq.compare_exchange_weak(Prev, Rec.CommitSeq,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }
  AppliedRecords.fetch_add(1, std::memory_order_relaxed);
}

bool FollowerRelation::waitApplied(uint64_t CommitSeq,
                                   unsigned TimeoutMs) const {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
  while (appliedSeq() < CommitSeq) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

void FollowerRelation::heal() {
  GapsHealed.fetch_add(1, std::memory_order_relaxed);
  if (!Backfill) {
    // No source to reconcile against: accept the loss, resynchronize
    // the stream cursor so subsequent items apply normally.
    ExpectedStreamSeq = Ch->published() + 1;
    return;
  }
  // Bookmark before the snapshot: every record published before this
  // point has committed under its locks and is therefore visible to
  // the snapshot scan; records after it will be applied on top, which
  // is convergent (last-writer-wins per key — see the file comment).
  uint64_t Bookmark = Ch->published();
  std::vector<Tuple> Snapshot = Backfill();

  // Discard the queue's prefix up to the bookmark, keep the rest.
  std::vector<CommitChannel::Item> Pending;
  Ch->drain(Pending);
  uint64_t SeqFloor = AppliedSeq.load(std::memory_order_relaxed);
  for (const CommitChannel::Item &I : Pending)
    if (I.StreamSeq <= Bookmark)
      SeqFloor = std::max(SeqFloor, I.Rec.CommitSeq);

  // Reconcile the replica onto the snapshot: removes first so a row
  // replacement (same key, new dependent columns) never has both
  // versions in the replica at once (FD safety).
  std::vector<Tuple> Mine = Replica.scanAll();
  std::vector<Tuple> Theirs = std::move(Snapshot);
  std::sort(Theirs.begin(), Theirs.end(), TupleLess());
  std::vector<Tuple> Stale, Missing;
  std::set_difference(Mine.begin(), Mine.end(), Theirs.begin(), Theirs.end(),
                      std::back_inserter(Stale), TupleLess());
  std::set_difference(Theirs.begin(), Theirs.end(), Mine.begin(), Mine.end(),
                      std::back_inserter(Missing), TupleLess());
  for (const Tuple &T : Stale)
    Replica.remove(T);
  for (const Tuple &T : Missing)
    Replica.insert(T, Tuple());

  // The snapshot covers at least every commit bookmarked into the
  // dropped range; publish that floor so waiters don't stall on
  // records that will never be individually applied.
  uint64_t Prev = AppliedSeq.load(std::memory_order_relaxed);
  while (Prev < SeqFloor &&
         !AppliedSeq.compare_exchange_weak(Prev, SeqFloor,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
  }

  // Resume with the strictly-younger suffix.
  ExpectedStreamSeq = Bookmark + 1;
  for (CommitChannel::Item &I : Pending) {
    if (I.StreamSeq <= Bookmark)
      continue;
    if (I.StreamSeq != ExpectedStreamSeq) {
      // Dropped again while healing (pathologically small channel):
      // the items we kept still only omit a suffix; recurse once per
      // detected jump.
      heal();
      return;
    }
    apply(I.Rec);
    ++ExpectedStreamSeq;
  }
}

void FollowerRelation::applierLoop() {
  std::vector<CommitChannel::Item> Batch;
  for (;;) {
    Batch.clear();
    uint64_t Published = Ch->drain(Batch);
    if (Batch.empty()) {
      // publish() bumps the stream sequence and enqueues under one
      // mutex, and drain reports the sequence it saw under that mutex,
      // so an empty drain with that value ≥ our cursor means the
      // missing records were *dropped* — a tail gap no younger item
      // will ever arrive to flag. Heal it now: otherwise the follower
      // stays stale (and stop() would wait forever on records that are
      // never going to be delivered). A later published() read would
      // also count a publish racing in after the drain as a gap.
      if (Published >= ExpectedStreamSeq) {
        heal();
        continue;
      }
      // The publisher is at our cursor: nothing in flight.
      if (Stop.load(std::memory_order_acquire))
        return;
      std::this_thread::sleep_for(std::chrono::microseconds(Opts.PollMicros));
      continue;
    }
    for (size_t I = 0; I < Batch.size(); ++I) {
      const CommitChannel::Item &It = Batch[I];
      if (It.StreamSeq != ExpectedStreamSeq) {
        // A drop happened between the last drained item and this one.
        // Re-publish the unprocessed suffix is unnecessary — heal()
        // re-drains the channel itself; but the suffix of *this* batch
        // must not be lost: process it through the same gap logic by
        // healing (which snapshots the source — covering these items'
        // effects too, as they are already committed) and dropping
        // the rest of the batch.
        heal();
        break;
      }
      apply(It.Rec);
      ++ExpectedStreamSeq;
    }
  }
}
