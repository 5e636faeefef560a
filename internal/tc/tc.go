// Package tc implements Linux-tc-style traffic control for simulated
// NICs: a classful PRIO qdisc, a token-bucket shaper (TBF), the RED and
// CoDel AQMs, and packet classifiers.
//
// The cross-layer prioritization case study (§4.3 of the paper) installs
// "nearly-strict prioritization (up to 95% of bandwidth)" on the
// sidecar's virtual interface; NewNearStrict builds exactly that
// discipline from a PRIO qdisc whose high band is shaped by a TBF.
package tc

import (
	"time"

	"meshlayer/internal/simnet"
)

// Clock supplies the current simulated time to shaping disciplines.
// Pass scheduler.Now.
type Clock func() time.Duration

// Filter matches packets to a class. Filters are evaluated in order;
// the first match wins.
type Filter struct {
	// Match reports whether the packet belongs to this filter's class.
	Match func(*simnet.Packet) bool
	// Class is the index of the target class/band.
	Class int
}

// MatchMark returns a filter predicate selecting packets with the mark.
func MatchMark(m simnet.Mark) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool { return p.Mark == m }
}

// MatchMinMark returns a predicate selecting packets with mark >= m.
func MatchMinMark(m simnet.Mark) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool { return p.Mark >= m }
}

// MatchDst returns a predicate selecting packets addressed to dst —
// the paper's prototype matches on the high-priority pod's IP address.
func MatchDst(dst simnet.Addr) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool { return p.Flow.Dst == dst }
}

// MatchSrc returns a predicate selecting packets originating from src.
func MatchSrc(src simnet.Addr) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool { return p.Flow.Src == src }
}

// MatchDstPort returns a predicate selecting packets to a given port.
func MatchDstPort(port uint16) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool { return p.Flow.DstPort == port }
}

// MatchAny combines predicates with OR.
func MatchAny(preds ...func(*simnet.Packet) bool) func(*simnet.Packet) bool {
	return func(p *simnet.Packet) bool {
		for _, f := range preds {
			if f(p) {
				return true
			}
		}
		return false
	}
}

// Classifier routes packets to class indexes via an ordered filter list.
type Classifier struct {
	Filters []Filter
	// Default is the class for packets matching no filter.
	Default int
}

// Classify returns the class index for p.
func (c *Classifier) Classify(p *simnet.Packet) int {
	for _, f := range c.Filters {
		if f.Match(p) {
			return f.Class
		}
	}
	return c.Default
}
