package sim

import (
	"math"
	"sort"

	"github.com/eadvfs/eadvfs/internal/task"
)

// arrival is the pending release of one periodic task.
type arrival struct {
	at   float64 // release instant, advanced by repeated += Period
	id   int     // task ID
	seq  int     // instance number of the pending release
	task int     // index into Config.Tasks
}

// before orders arrivals by (instant, task ID, seq), the order
// task.ReleaseJobs sorts a full expansion into.
func (a *arrival) before(b *arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.seq < b.seq
}

// releases is a run's arrival stream. Periodic tasks are not expanded over
// the horizon: a min-heap holds one pending arrival per task, and
// releasing it advances that task's instant by one period. At equal
// instants periodic jobs come first, then Config.Jobs in caller order —
// the order a stable sort of the full expansion produces. Memory is
// therefore the task count plus the live jobs, whatever the horizon.
//
// Job structs are recycled. The engine retires a job once it is out of
// the ready queue and its deadline event, if any, has fired; a retired job
// waits in limbo until the next policy decision has returned, because a
// policy may keep the previous decision's job for one more decision
// (workload.Reclaimer observes its completion there), and only then goes
// back on the free list.
type releases struct {
	tasks   []task.Task
	horizon float64

	heap     []arrival   // one entry per periodic task with a release ahead
	explicit []*task.Job // Config.Jobs inside the horizon, stably by arrival
	nextExp  int         // cursor into explicit
	next     float64     // instant of the next release; +Inf when exhausted

	all   []*task.Job // every job struct minted; all free again at reset
	free  []*task.Job
	limbo []*task.Job // retired since the last decision
}

// reset starts the stream of cfg and frees every job of the previous run.
func (r *releases) reset(cfg *Config) {
	r.tasks, r.horizon = cfg.Tasks, cfg.Horizon
	r.heap = r.heap[:0]
	for i, t := range cfg.Tasks {
		if t.Offset < cfg.Horizon {
			r.heap = append(r.heap, arrival{at: t.Offset, id: t.ID, task: i})
		}
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	r.explicit = r.explicit[:0]
	for _, j := range cfg.Jobs {
		if j.Arrival < cfg.Horizon {
			r.explicit = append(r.explicit, j)
		}
	}
	if len(r.explicit) > 1 {
		sort.SliceStable(r.explicit, func(x, y int) bool { return r.explicit[x].Arrival < r.explicit[y].Arrival })
	}
	r.nextExp = 0
	r.free = append(r.free[:0], r.all...)
	r.limbo = r.limbo[:0]
	r.peek()
}

// peek recomputes the instant of the next release.
func (r *releases) peek() {
	r.next = math.Inf(1)
	if len(r.heap) > 0 {
		r.next = r.heap[0].at
	}
	if r.nextExp < len(r.explicit) && r.explicit[r.nextExp].Arrival < r.next {
		r.next = r.explicit[r.nextExp].Arrival
	}
}

// pop releases the job due at r.next. Explicit jobs are copied into a
// recycled struct, so the caller's Config.Jobs are never mutated.
func (r *releases) pop() *task.Job {
	j := r.get()
	if len(r.heap) > 0 && r.heap[0].at == r.next {
		a := &r.heap[0]
		t := &r.tasks[a.task]
		j.Reset(t.ID, a.seq, a.at, t.Deadline, t.WCET)
		j.Exec = t.Exec
		a.at += t.Period
		a.seq++
		if a.at >= r.horizon {
			last := len(r.heap) - 1
			r.heap[0] = r.heap[last]
			r.heap = r.heap[:last]
		}
		if len(r.heap) > 1 {
			r.down(0)
		}
	} else {
		*j = *r.explicit[r.nextExp]
		r.nextExp++
	}
	r.peek()
	return j
}

// down restores the heap order below index i.
func (r *releases) down(i int) {
	h := r.heap
	x := h[i]
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if s := m + 1; s < len(h) && h[s].before(&h[m]) {
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

// get takes a job struct off the free list, minting one when it is empty.
func (r *releases) get() *task.Job {
	if n := len(r.free); n > 0 {
		j := r.free[n-1]
		r.free = r.free[:n-1]
		return j
	}
	j := new(task.Job)
	r.all = append(r.all, j)
	return j
}

// retire parks a job nothing in the engine can reach any more.
func (r *releases) retire(j *task.Job) { r.limbo = append(r.limbo, j) }

// recycle frees the jobs retired before the decision that just returned.
func (r *releases) recycle() {
	if len(r.limbo) > 0 {
		r.free = append(r.free, r.limbo...)
		r.limbo = r.limbo[:0]
	}
}
