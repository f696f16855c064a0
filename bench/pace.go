package main

import (
	"io"
	"time"
)

// pacer is the serve phase's feed schedule: total messages at rate
// msgs/s, released in one slice per tick. The schedule never slows
// when the server does — the feeder reports how far behind it fell.
type pacer struct {
	rate  int
	tick  time.Duration
	total int
}

// due is how many messages the schedule has released once elapsed has
// passed: one tick's worth at time zero and at every tick boundary.
func (p pacer) due(elapsed time.Duration) int {
	if elapsed < 0 {
		return 0
	}
	perTick := float64(p.rate) * p.tick.Seconds()
	ticks := int(elapsed/p.tick) + 1
	return min(int(float64(ticks)*perTick), p.total)
}

// nextTick is when the next slice is released, measured from the
// start.
func (p pacer) nextTick(elapsed time.Duration) time.Duration {
	return (elapsed/p.tick + 1) * p.tick
}

// feed writes messages [from, from+p.total) of s to w on schedule and
// returns the largest backlog it saw: messages the schedule had
// released but a blocked write had kept it from sending.
func (p pacer) feed(w io.Writer, s *synthStream, from int) (backlogMax int, err error) {
	start := time.Now()
	for written := 0; written < p.total; {
		elapsed := time.Since(start)
		due := p.due(elapsed)
		if due == written {
			time.Sleep(p.nextTick(elapsed) - elapsed)
			continue
		}
		// One tick's slice is always due; anything more is lateness.
		late := due - written - p.due(0)
		backlogMax = max(backlogMax, late)
		if _, err := w.Write(s.lines(from+written, from+due)); err != nil {
			return backlogMax, err
		}
		written = due
	}
	return backlogMax, nil
}
