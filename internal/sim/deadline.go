package sim

import (
	"fmt"
	"math"

	"github.com/eadvfs/eadvfs/internal/task"
)

// deadlineCheck is one pending deadline check: the job's absolute
// deadline and the check's insertion sequence.
type deadlineCheck struct {
	at  float64
	seq uint64
	job *task.Job
}

// before orders checks by (instant, insertion sequence).
func (a *deadlineCheck) before(b *deadlineCheck) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// deadlines is a run's deadline-check stream: a min-heap of typed values
// keyed (deadline, insertion sequence). All checks share one dispatch
// priority, so this is a DES kernel's (time, priority, seq) order without
// a pooled event struct, a handler call or an interface-boxed argument per
// check. Like the kernel, it refuses a NaN instant and an instant before
// the engine clock.
type deadlines struct {
	heap    []deadlineCheck
	nextSeq uint64
	next    float64 // instant of the earliest check; +Inf when none
}

// reset empties the stream for a new run, keeping the heap's storage.
func (d *deadlines) reset() {
	d.heap = d.heap[:0]
	d.nextSeq = 0
	d.next = math.Inf(1)
}

// push schedules the check of j at its absolute deadline; now is the
// engine clock.
func (d *deadlines) push(j *task.Job, now float64) {
	if math.IsNaN(j.Abs) {
		panic("sim: scheduling deadline check at NaN time")
	}
	if j.Abs < now {
		panic(fmt.Sprintf("sim: scheduling deadline check at t=%v before now=%v", j.Abs, now))
	}
	x := deadlineCheck{at: j.Abs, seq: d.nextSeq, job: j}
	d.nextSeq++
	h := append(d.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	d.heap = h
	d.next = h[0].at
}

// pop removes the earliest check and returns its job.
func (d *deadlines) pop() *task.Job {
	h := d.heap
	j := h[0].job
	last := len(h) - 1
	x := h[last]
	h[last].job = nil
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			m := 2*i + 1
			if m >= last {
				break
			}
			if s := m + 1; s < last && h[s].before(&h[m]) {
				m = s
			}
			if !h[m].before(&x) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = x
	}
	d.heap = h
	d.next = math.Inf(1)
	if last > 0 {
		d.next = h[0].at
	}
	return j
}
