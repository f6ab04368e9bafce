package sim

import "time"

// event is a pending simulation event at time at. A wake event (p != nil)
// resumes the parked process p; any other event runs fire in kernel
// context.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: events at the same instant fire in schedule order
	p    *Proc
	fire func()
}

// before reports whether a fires before b: earlier time first, then lower
// sequence number.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq). Events are
// stored by value, so pushing one allocates only when the slice grows.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !ev.before(&s[up]) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the earliest event. The heap must not be empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the process and closure references
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(&s[c]) {
				c = r
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}
