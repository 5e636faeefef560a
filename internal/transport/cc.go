package transport

import (
	"fmt"
	"math"
	"time"
)

// Controller is a congestion-control algorithm. The connection reports
// events; the controller exposes the congestion window in bytes.
//
// RTT samples passed to OnAck are timestamp-based and therefore valid
// even in the presence of retransmission.
type Controller interface {
	// Name identifies the algorithm ("reno", "cubic", "ledbat", "lp").
	Name() string
	// OnAck reports acked bytes plus a fresh RTT sample.
	OnAck(acked int, rtt time.Duration)
	// OnLoss reports a fast-retransmit loss (once per window).
	OnLoss()
	// OnTimeout reports an RTO expiry.
	OnTimeout()
	// Window returns the congestion window in bytes.
	Window() int
}

// NewController builds a controller by name. Supported names: "reno",
// "cubic", "ledbat", "lp". Empty selects "reno". Unknown names panic:
// they indicate a configuration typo, not a runtime condition.
func NewController(name string, clock func() time.Duration) Controller {
	switch name {
	case "", "reno":
		return NewReno()
	case "cubic":
		return NewCubic(clock)
	case "ledbat":
		return NewLEDBAT()
	case "lp":
		return NewLP()
	default:
		panic(fmt.Sprintf("transport: unknown congestion controller %q", name))
	}
}

// IsScavenger reports whether the named controller is a
// less-than-best-effort (scavenger) algorithm.
func IsScavenger(name string) bool { return name == "ledbat" || name == "lp" }

const (
	initialWindow = 10 * MSS
	minWindow     = 2 * MSS
	maxWindow     = 16 << 20 // 16 MiB
)

// Reno is classic AIMD with slow start: the baseline best-effort
// transport.
type Reno struct {
	cwnd     float64
	ssthresh float64
}

// NewReno returns a Reno controller with a 10-MSS initial window.
func NewReno() *Reno {
	return &Reno{cwnd: initialWindow, ssthresh: math.MaxFloat64}
}

// Name implements Controller.
func (r *Reno) Name() string { return "reno" }

// OnAck implements Controller.
func (r *Reno) OnAck(acked int, _ time.Duration) {
	if r.cwnd < r.ssthresh {
		r.cwnd += float64(acked) // slow start
	} else {
		r.cwnd += float64(MSS) * float64(acked) / r.cwnd // congestion avoidance
	}
	if r.cwnd > maxWindow {
		r.cwnd = maxWindow
	}
}

// OnLoss implements Controller.
func (r *Reno) OnLoss() {
	r.ssthresh = math.Max(r.cwnd/2, minWindow)
	r.cwnd = r.ssthresh
}

// OnTimeout implements Controller.
func (r *Reno) OnTimeout() {
	r.ssthresh = math.Max(r.cwnd/2, minWindow)
	r.cwnd = minWindow
}

// Window implements Controller.
func (r *Reno) Window() int { return int(r.cwnd) }

// Cubic grows the window as a cubic function of time since the last
// loss, per RFC 8312, including the TCP-friendly region (the window
// never falls below what Reno-style AIMD would achieve, which matters
// on small-BDP paths where the cubic term alone recovers slowly).
// Fast-convergence heuristics are omitted.
type Cubic struct {
	clock    func() time.Duration
	cwnd     float64
	ssthresh float64
	wMax     float64
	epoch    time.Duration
	k        float64
	wEst     float64 // TCP-friendly (Reno-equivalent) window estimate
	lastRTT  time.Duration
	minRTT   time.Duration
}

// cubicC is the RFC 8312 scaling constant (segments/s^3).
const cubicC = 0.4

// NewCubic returns a CUBIC controller driven by the given clock.
func NewCubic(clock func() time.Duration) *Cubic {
	if clock == nil {
		panic("transport: cubic needs a clock")
	}
	return &Cubic{clock: clock, cwnd: initialWindow, ssthresh: math.MaxFloat64, epoch: -1}
}

// Name implements Controller.
func (c *Cubic) Name() string { return "cubic" }

// OnAck implements Controller.
func (c *Cubic) OnAck(acked int, rtt time.Duration) {
	if rtt > 0 {
		c.lastRTT = rtt
		if c.minRTT == 0 || rtt < c.minRTT {
			c.minRTT = rtt
		}
	}
	if c.cwnd < c.ssthresh {
		// HyStart-style delay-based exit: once queueing delay builds,
		// leave slow start before overshooting the buffer.
		if c.minRTT > 0 && rtt > c.minRTT+c.minRTT/2 && c.cwnd > 16*MSS {
			c.ssthresh = c.cwnd
		} else {
			c.cwnd += float64(acked)
			if c.cwnd > maxWindow {
				c.cwnd = maxWindow
			}
			return
		}
	}
	now := c.clock()
	if c.epoch < 0 {
		c.epoch = now
		c.wMax = c.cwnd
		c.k = 0
		c.wEst = c.cwnd
	}
	t := (now - c.epoch).Seconds()
	// Target in segments: W(t) = C(t-K)^3 + Wmax, capped at 1.5*cwnd
	// per RFC 8312 §4.1 so deep-in-the-future cubic targets cannot
	// trigger overshoot bursts on shallow-buffered paths.
	target := (cubicC*math.Pow(t-c.k, 3) + c.wMax/MSS) * MSS
	if target > 1.5*c.cwnd {
		target = 1.5 * c.cwnd
	}
	// TCP-friendly region (RFC 8312 §4.2): Reno-equivalent growth at
	// the matched rate, 3(1-beta)/(1+beta) per RTT with beta = 0.7.
	c.wEst += 3 * 0.3 / 1.7 * float64(MSS) * float64(acked) / c.cwnd
	if target < c.wEst {
		target = c.wEst
	}
	if target > c.cwnd {
		c.cwnd += (target - c.cwnd) * float64(acked) / c.cwnd
	} else {
		c.cwnd += float64(MSS) * float64(acked) / (100 * c.cwnd) // slow probing
	}
	if c.cwnd > maxWindow {
		c.cwnd = maxWindow
	}
}

// OnLoss implements Controller.
func (c *Cubic) OnLoss() {
	c.wMax = c.cwnd
	c.cwnd = math.Max(c.cwnd*0.7, minWindow) // beta = 0.7
	c.ssthresh = c.cwnd
	c.epoch = c.clock()
	c.k = math.Cbrt(c.wMax * 0.3 / MSS / cubicC)
	c.wEst = c.cwnd
}

// OnTimeout implements Controller.
func (c *Cubic) OnTimeout() {
	c.OnLoss()
	c.cwnd = minWindow
}

// Window implements Controller.
func (c *Cubic) Window() int { return int(c.cwnd) }

// LEDBAT is the RFC 6817 less-than-best-effort controller: it targets a
// bounded queueing delay and yields quickly to competing traffic —
// the scavenger class the paper routes latency-insensitive requests
// onto.
type LEDBAT struct {
	cwnd    float64
	baseRTT time.Duration
	target  time.Duration
	gain    float64
}

// DefaultLEDBATTarget is the queueing-delay target. RFC 6817 allows up
// to 100 ms; datacenter deployments use far less so the scavenger
// yields within a handful of RTTs.
const DefaultLEDBATTarget = 5 * time.Millisecond

// NewLEDBAT returns a LEDBAT controller with the default target.
func NewLEDBAT() *LEDBAT {
	return &LEDBAT{cwnd: initialWindow, target: DefaultLEDBATTarget, gain: 1}
}

// Name implements Controller.
func (l *LEDBAT) Name() string { return "ledbat" }

// OnAck implements Controller.
func (l *LEDBAT) OnAck(acked int, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if l.baseRTT == 0 || rtt < l.baseRTT {
		l.baseRTT = rtt
	}
	qdelay := rtt - l.baseRTT
	offTarget := float64(l.target-qdelay) / float64(l.target)
	l.cwnd += l.gain * offTarget * float64(acked) * float64(MSS) / l.cwnd
	if l.cwnd < minWindow {
		l.cwnd = minWindow
	}
	if l.cwnd > maxWindow {
		l.cwnd = maxWindow
	}
}

// OnLoss implements Controller.
func (l *LEDBAT) OnLoss() {
	l.cwnd = math.Max(l.cwnd/2, minWindow)
}

// OnTimeout implements Controller.
func (l *LEDBAT) OnTimeout() { l.cwnd = minWindow }

// Window implements Controller.
func (l *LEDBAT) Window() int { return int(l.cwnd) }

// LP approximates TCP-LP (Kuzmanovic & Knightly): additive increase,
// but an *early* backoff to minimum the moment one-way delay inference
// signals that best-effort traffic is present, plus an inference phase
// during which the window is pinned.
type LP struct {
	cwnd      float64
	baseRTT   time.Duration
	maxRTT    time.Duration
	inference bool
	infUntil  time.Duration
	lastRTT   time.Duration
	now       time.Duration
}

// lpThreshold is the fraction of the delay range at which LP infers
// competing traffic (delta in the paper; 0.15 is the suggested value).
const lpThreshold = 0.15

// NewLP returns a TCP-LP-style controller.
func NewLP() *LP { return &LP{cwnd: initialWindow} }

// Name implements Controller.
func (l *LP) Name() string { return "lp" }

// OnAck implements Controller.
func (l *LP) OnAck(acked int, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	l.now += rtt // virtual per-connection clock advanced by RTT samples
	l.lastRTT = rtt
	if l.baseRTT == 0 || rtt < l.baseRTT {
		l.baseRTT = rtt
	}
	if rtt > l.maxRTT {
		l.maxRTT = rtt
	}
	rng := l.maxRTT - l.baseRTT
	if rng > 0 && rtt-l.baseRTT > time.Duration(float64(rng)*lpThreshold) && rtt-l.baseRTT > time.Millisecond {
		// Early congestion indication: competing traffic detected.
		if !l.inference {
			l.inference = true
			l.infUntil = l.now + 3*rtt
			l.cwnd = math.Max(l.cwnd/2, minWindow)
		} else if l.now > l.infUntil {
			l.cwnd = minWindow
		}
		return
	}
	if l.inference && l.now > l.infUntil {
		l.inference = false
	}
	if !l.inference {
		l.cwnd += float64(MSS) * float64(acked) / l.cwnd
		if l.cwnd > maxWindow {
			l.cwnd = maxWindow
		}
	}
}

// OnLoss implements Controller.
func (l *LP) OnLoss() {
	l.cwnd = math.Max(l.cwnd/2, minWindow)
	l.inference = true
	l.infUntil = l.now + 3*l.lastRTT
}

// OnTimeout implements Controller.
func (l *LP) OnTimeout() { l.cwnd = minWindow }

// Window implements Controller.
func (l *LP) Window() int { return int(l.cwnd) }
