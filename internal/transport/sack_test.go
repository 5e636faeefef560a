package transport

import (
	"math/rand"
	"testing"

	"meshlayer/internal/simnet"
)

// directConn builds a conn with just enough state to unit-test the
// SACK bookkeeping without a network.
func directConn() *Conn {
	s := simnet.NewScheduler()
	n := simnet.NewNetwork(s)
	node := n.AddNode("x")
	h := NewHost(node)
	return &Conn{host: h, state: stateEstablished, cc: NewReno(), peerWnd: rcvWindow}
}

// setSegs replaces c's outstanding segments with segs, in order.
func setSegs(c *Conn, segs ...segInfo) {
	c.segs.Reset()
	for _, s := range segs {
		c.segs.PushBack(s)
	}
}

func TestApplySacksMarksCoveredSegments(t *testing.T) {
	c := directConn()
	setSegs(c,
		segInfo{seq: 0, length: 1000},
		segInfo{seq: 1000, length: 1000},
		segInfo{seq: 2000, length: 1000},
		segInfo{seq: 3000, length: 500},
	)
	c.applySacks([]SackBlock{{Start: 1000, End: 2000}, {Start: 3000, End: 3500}})
	want := []bool{false, true, false, true}
	for i, w := range want {
		if c.segs.At(i).sacked != w {
			t.Fatalf("seg %d sacked=%v, want %v", i, c.segs.At(i).sacked, w)
		}
	}
	// Partial coverage must NOT mark a segment.
	c2 := directConn()
	setSegs(c2, segInfo{seq: 0, length: 1000})
	c2.applySacks([]SackBlock{{Start: 0, End: 999}})
	if c2.segs.At(0).sacked {
		t.Fatal("partially covered segment marked sacked")
	}
	// Empty sack list is a no-op.
	c2.applySacks(nil)
}

func TestAddOOOMergesRanges(t *testing.T) {
	c := directConn()
	c.addOOO(1000, 2000)
	c.addOOO(3000, 4000)
	if len(c.ooo) != 2 {
		t.Fatalf("ooo = %v", c.ooo)
	}
	// Bridging range merges all three.
	c.addOOO(2000, 3000)
	if len(c.ooo) != 1 || c.ooo[0].seq != 1000 || c.ooo[0].end != 4000 {
		t.Fatalf("merge failed: %v", c.ooo)
	}
	// Contained duplicate changes nothing.
	c.addOOO(1500, 1800)
	if len(c.ooo) != 1 || c.ooo[0].end != 4000 {
		t.Fatalf("duplicate mutated: %v", c.ooo)
	}
	// Overlapping extension grows the range.
	c.addOOO(3500, 4500)
	if len(c.ooo) != 1 || c.ooo[0].end != 4500 {
		t.Fatalf("extension failed: %v", c.ooo)
	}
	// Insert before the existing range keeps sorted order.
	c.addOOO(100, 200)
	if len(c.ooo) != 2 || c.ooo[0].seq != 100 {
		t.Fatalf("sorted insert failed: %v", c.ooo)
	}
}

func TestMergeOOOAdvancesRcvNxt(t *testing.T) {
	c := directConn()
	c.rcvNxt = 1000
	c.addOOO(1000, 2000)
	c.addOOO(2000, 2500)
	c.mergeOOO()
	if c.rcvNxt != 2500 {
		t.Fatalf("rcvNxt = %d, want 2500", c.rcvNxt)
	}
	if len(c.ooo) != 0 {
		t.Fatalf("residual ooo: %v", c.ooo)
	}
	// A gap stops the merge.
	c.addOOO(3000, 3500)
	c.mergeOOO()
	if c.rcvNxt != 2500 || len(c.ooo) != 1 {
		t.Fatalf("merged across a gap: rcvNxt=%d ooo=%v", c.rcvNxt, c.ooo)
	}
}

func TestRecvBoundDedupAndWatermark(t *testing.T) {
	c := directConn()
	c.addRecvBound(Bound{End: 100, Meta: "a"})
	c.addRecvBound(Bound{End: 100, Meta: "a"}) // duplicate
	c.addRecvBound(Bound{End: 50, Meta: "b"})
	if c.recvBounds.Len() != 2 || c.recvBounds.At(0).End != 50 {
		t.Fatalf("bounds = %v", c.recvBounds)
	}
	// Deliver both, then re-adding them (late retransmit) is ignored.
	c.rcvNxt = 100
	delivered := 0
	c.onMessage = func(any, int) { delivered++ }
	c.deliverReady()
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	c.addRecvBound(Bound{End: 100, Meta: "a"})
	c.addRecvBound(Bound{End: 50, Meta: "b"})
	if c.recvBounds.Len() != 0 {
		t.Fatalf("stale bounds re-added: %v", c.recvBounds)
	}
}

func TestSackRetransmitLimitsBurst(t *testing.T) {
	// 10 unsacked segments below a sacked tail: only rtxBurst go out
	// per call.
	c := directConn()
	for i := 0; i < 10; i++ {
		c.segs.PushBack(segInfo{seq: uint64(i * 1000), length: 1000})
	}
	c.segs.PushBack(segInfo{seq: 10000, length: 1000, sacked: true})
	c.sndUna = 0
	c.sendEnd = 11000
	c.sndNxt = 11000
	before := c.retransmits
	c.sackRetransmit()
	if got := c.retransmits - before; got != rtxBurst {
		t.Fatalf("retransmitted %d, want %d", got, rtxBurst)
	}
	// Second call repairs the next batch (rtxed ones skipped).
	c.sackRetransmit()
	if got := c.retransmits - before; got != 2*rtxBurst {
		t.Fatalf("after second call: %d, want %d", got, 2*rtxBurst)
	}
}

func TestSackRetransmitNoSackNoop(t *testing.T) {
	c := directConn()
	setSegs(c, segInfo{seq: 0, length: 1000})
	c.sackRetransmit()
	if c.retransmits != 0 {
		t.Fatal("retransmitted without any sacked segment")
	}
}

// applySacksScan is the reference rule applySacks must reproduce: a
// segment is sacked when some block wholly contains it.
func applySacksScan(segs []segInfo, sacks []SackBlock) {
	for i := range segs {
		s := &segs[i]
		if s.sacked {
			continue
		}
		end := s.seq + uint64(s.length)
		for _, b := range sacks {
			if s.seq >= b.Start && end <= b.End {
				s.sacked = true
				break
			}
		}
	}
}

// TestApplySacksMatchesScan checks the binary-searched applySacks
// against the full scan on random windows (gaps, FIN-sized segments,
// pre-sacked segments, a ring whose head has moved) and random blocks
// (unsorted, overlapping, partial, beyond the window).
func TestApplySacksMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		c := directConn()
		// Push and pop a few so the window starts off the ring's slot 0.
		for i := rng.Intn(12); i > 0; i-- {
			c.segs.PushBack(segInfo{})
			c.segs.PopFront()
		}
		var want []segInfo
		seq := uint64(rng.Intn(5000))
		for i := rng.Intn(40); i > 0; i-- {
			seq += uint64(rng.Intn(3)) * 700 // occasional gaps
			length := 1 + rng.Intn(MSS)
			s := segInfo{seq: seq, length: length, sacked: rng.Intn(8) == 0}
			want = append(want, s)
			c.segs.PushBack(s)
			seq += uint64(length)
		}
		var sacks []SackBlock
		for i := rng.Intn(maxSackBlocks + 1); i > 0; i-- {
			start := uint64(rng.Intn(int(seq) + 3000))
			sacks = append(sacks, SackBlock{Start: start, End: start + uint64(rng.Intn(20000))})
		}
		applySacksScan(want, sacks)
		c.applySacks(sacks)
		for i, w := range want {
			if got := c.segs.At(i).sacked; got != w.sacked {
				t.Fatalf("trial %d: seg %d [%d,+%d) sacked=%v, scan says %v (blocks %v)",
					trial, i, w.seq, w.length, got, w.sacked, sacks)
			}
		}
	}
}
