package mpi

// The matching engine. Every message-matching decision in the runtime —
// posting a receive, pairing a just-posted send, the send-side copy-elision
// prediction, and probing — goes through one matchEngine, so the matching
// rules exist in exactly one place and the prediction path can never drift
// from the real pairing.
//
// The production engine (bucketMatcher) replaces the original
// communicator-wide linear scans with per-destination-rank buckets. Within a
// bucket, posted receives and unexpected (pending) messages are indexed by
// their literal (src, tag) pair; wildcard receives land in dedicated lanes
// keyed by the AnySource/AnyTag sentinels themselves (both are negative and
// can never collide with a concrete envelope, and the runtime never builds a
// message whose tag equals a sentinel). Queues are intrusive doubly-linked
// FIFOs embedded in message/recvOp, so removal is O(1) with no memmove and
// no pointer retention in slice tails.
//
// FIFO / non-overtaking semantics are preserved exactly. The legacy scans
// walked slices ordered by the world's global seq counter, so "first match
// in scan order" always meant "matching entry with the smallest seq". Lanes
// are appended in seq order, hence each lane head is the smallest seq of its
// lane; merging the (at most four) candidate lane heads on seq reproduces
// the legacy pick — and therefore every virtual timestamp — byte for byte.
// The equivalence gate in equiv_test.go runs the old verbatim scans side by
// side and requires identical event streams, pairings, and end times.

// matchEngine is the matching core behind one communicator. Exactly one
// simulated process runs at a time, so implementations need no host locks.
type matchEngine interface {
	// addMsg enqueues a just-posted message as unexpected (pending) traffic.
	addMsg(msg *message)
	// removeMsg unlinks a pending message (after matchMsg paired it).
	removeMsg(msg *message)
	// addRecv enqueues a posted receive.
	addRecv(rop *recvOp)
	// matchMsg returns the posted receive the engine pairs msg with: the
	// matching receive with the smallest seq (the one the legacy scan found
	// first). With consume it is removed from the queues; without, matchMsg
	// is a pure prediction — the send-side copy-elision path. Both cases run
	// the same selection code, so the prediction provably mirrors the match.
	matchMsg(msg *message, consume bool) *recvOp
	// takeMsg returns and removes the earliest-arrived pending message a
	// just-posted receive accepts, or nil.
	takeMsg(rop *recvOp) *message
	// peekMsg returns without removing the earliest-arrived pending message
	// for owner matching a (src, tag) probe filter, wildcards allowed.
	peekMsg(owner, src, tag int) *message
	// depths reports rank's current posted-receive and unexpected-message
	// queue depths.
	depths(rank int) (posted, unexpected int)
	// highWater reports the largest depths rank has ever seen.
	highWater(rank int) (posted, unexpected int)
}

// laneKey identifies one matching lane inside a destination rank's bucket:
// the literal (src, tag) of a posted receive — wildcard sentinels included —
// or the concrete envelope of a pending message.
type laneKey struct{ src, tag int }

// lane is one matching lane: the FIFO of pending messages sharing a
// concrete (src, tag) and the FIFO of posted receives sharing a literal
// (src, tag). A wildcard key only ever holds receives.
type lane struct {
	msgHead, msgTail   *message
	recvHead, recvTail *recvOp
}

// matchBucket holds one destination rank's matching state. Its lanes live
// in one slice, indexed by key through a pointer-free map, so a new key
// costs no heap object of its own and the collector has nothing to scan in
// the index. Empty lanes stay cached: the set of distinct keys is bounded by
// the traffic's tag diversity (user tags plus the per-round collective
// tags), so reuse beats reallocation.
type matchBucket struct {
	index map[laneKey]int32
	lanes []lane
	// arrHead/arrTail thread every pending message of this rank in arrival
	// order; wildcard receives and probes walk it instead of scanning the
	// whole communicator.
	arrHead, arrTail *message
	msgs, recvs      int
	msgsHW, recvsHW  int
}

// laneHint sizes a bucket's lane index and slice on first use: one map
// group, and the slice's first few doublings skipped. Larger hints cost the
// many small worlds of a sweep more than they save large ones.
const laneHint = 8

// lane returns the index of the lane for k, creating the lane if needed.
func (b *matchBucket) lane(k laneKey) int32 {
	i, ok := b.index[k]
	if !ok {
		if b.index == nil {
			b.index = make(map[laneKey]int32, laneHint)
			b.lanes = make([]lane, 0, laneHint)
		}
		i = int32(len(b.lanes))
		b.lanes = append(b.lanes, lane{})
		b.index[k] = i
	}
	return i
}

// find returns the lane for k, or nil if the bucket never had one.
func (b *matchBucket) find(k laneKey) *lane {
	if i, ok := b.index[k]; ok {
		return &b.lanes[i]
	}
	return nil
}

// bucketMatcher is the production matching engine: one bucket per rank.
type bucketMatcher struct {
	buckets []matchBucket
}

func newBucketMatcher(size int) *bucketMatcher {
	return &bucketMatcher{buckets: make([]matchBucket, size)}
}

func (m *bucketMatcher) addMsg(msg *message) {
	b := &m.buckets[msg.dst]
	ln := &b.lanes[b.lane(laneKey{msg.src, msg.tag})]
	if ln.msgTail == nil {
		ln.msgHead, ln.msgTail = msg, msg
	} else {
		msg.lanePrev = ln.msgTail
		ln.msgTail.laneNext = msg
		ln.msgTail = msg
	}
	if b.arrTail == nil {
		b.arrHead, b.arrTail = msg, msg
	} else {
		msg.arrPrev = b.arrTail
		b.arrTail.arrNext = msg
		b.arrTail = msg
	}
	b.msgs++
	if b.msgs > b.msgsHW {
		b.msgsHW = b.msgs
	}
}

func (m *bucketMatcher) removeMsg(msg *message) {
	b := &m.buckets[msg.dst]
	ln := b.find(laneKey{msg.src, msg.tag})
	if msg.lanePrev != nil {
		msg.lanePrev.laneNext = msg.laneNext
	} else {
		ln.msgHead = msg.laneNext
	}
	if msg.laneNext != nil {
		msg.laneNext.lanePrev = msg.lanePrev
	} else {
		ln.msgTail = msg.lanePrev
	}
	if msg.arrPrev != nil {
		msg.arrPrev.arrNext = msg.arrNext
	} else {
		b.arrHead = msg.arrNext
	}
	if msg.arrNext != nil {
		msg.arrNext.arrPrev = msg.arrPrev
	} else {
		b.arrTail = msg.arrPrev
	}
	msg.laneNext, msg.lanePrev = nil, nil
	msg.arrNext, msg.arrPrev = nil, nil
	b.msgs--
}

func (m *bucketMatcher) addRecv(rop *recvOp) {
	b := &m.buckets[rop.owner]
	rop.lane = b.lane(laneKey{rop.src, rop.tag})
	ln := &b.lanes[rop.lane]
	if ln.recvTail == nil {
		ln.recvHead, ln.recvTail = rop, rop
	} else {
		rop.lanePrev = ln.recvTail
		ln.recvTail.laneNext = rop
		ln.recvTail = rop
	}
	b.recvs++
	if b.recvs > b.recvsHW {
		b.recvsHW = b.recvs
	}
}

// removeRecv unlinks a posted receive from its lane.
func (m *bucketMatcher) removeRecv(rop *recvOp) {
	b := &m.buckets[rop.owner]
	ln := &b.lanes[rop.lane]
	if rop.lanePrev != nil {
		rop.lanePrev.laneNext = rop.laneNext
	} else {
		ln.recvHead = rop.laneNext
	}
	if rop.laneNext != nil {
		rop.laneNext.lanePrev = rop.lanePrev
	} else {
		ln.recvTail = rop.lanePrev
	}
	rop.laneNext, rop.lanePrev = nil, nil
	b.recvs--
}

func (m *bucketMatcher) matchMsg(msg *message, consume bool) *recvOp {
	b := &m.buckets[msg.dst]
	if b.recvs == 0 {
		return nil
	}
	var best *recvOp
	consider := func(k laneKey) {
		if ln := b.find(k); ln != nil && ln.recvHead != nil &&
			(best == nil || ln.recvHead.seq < best.seq) {
			best = ln.recvHead
		}
	}
	// A message's envelope is always concrete (src is a real rank; user tags
	// are >= 0 and internal collective tags are <= tagBarrier), so the exact
	// lanes below can never alias a wildcard lane. The guards keep that true
	// even for a hypothetical sentinel-valued envelope, mirroring matches():
	// an AnyTag receive never accepts a negative-tag message.
	if msg.src != AnySource && msg.tag != AnyTag {
		consider(laneKey{msg.src, msg.tag})
		consider(laneKey{AnySource, msg.tag})
	}
	if msg.tag >= 0 {
		consider(laneKey{msg.src, AnyTag})
		consider(laneKey{AnySource, AnyTag})
	}
	if best != nil && consume {
		m.removeRecv(best)
	}
	return best
}

// findMsg locates the earliest-arrived pending message for this bucket
// matching a (src, tag) filter: the lane head for a concrete filter, or the
// first arrival-list hit for a wildcard one. Lane FIFOs and the arrival list
// are both in arrival (seq) order, so either path yields the message the
// legacy communicator-wide scan found first.
func (b *matchBucket) findMsg(src, tag int) *message {
	if src != AnySource && tag != AnyTag {
		if ln := b.find(laneKey{src, tag}); ln != nil {
			return ln.msgHead
		}
		return nil
	}
	filter := recvOp{src: src, tag: tag}
	for msg := b.arrHead; msg != nil; msg = msg.arrNext {
		if matches(&filter, msg) {
			return msg
		}
	}
	return nil
}

func (m *bucketMatcher) takeMsg(rop *recvOp) *message {
	msg := m.buckets[rop.owner].findMsg(rop.src, rop.tag)
	if msg != nil {
		m.removeMsg(msg)
	}
	return msg
}

func (m *bucketMatcher) peekMsg(owner, src, tag int) *message {
	return m.buckets[owner].findMsg(src, tag)
}

func (m *bucketMatcher) depths(rank int) (posted, unexpected int) {
	b := &m.buckets[rank]
	return b.recvs, b.msgs
}

func (m *bucketMatcher) highWater(rank int) (posted, unexpected int) {
	b := &m.buckets[rank]
	return b.recvsHW, b.msgsHW
}
