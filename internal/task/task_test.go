package task

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTaskValidate(t *testing.T) {
	good := Task{ID: 0, Period: 10, Deadline: 10, WCET: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	bad := []Task{
		{Period: 0, Deadline: 10, WCET: 1},
		{Period: 10, Deadline: 0, WCET: 1},
		{Period: 10, Deadline: 10, WCET: -1},
		{Period: 10, Deadline: 5, WCET: 6}, // wcet > deadline
		{Period: 10, Deadline: 10, WCET: 1, Offset: -1},
		{Period: math.NaN(), Deadline: 10, WCET: 1},
		{Period: math.Inf(1), Deadline: 10, WCET: 1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("bad task %d accepted", i)
		}
	}
}

func TestTaskUtilization(t *testing.T) {
	tk := Task{Period: 20, Deadline: 20, WCET: 5}
	if got := tk.Utilization(); got != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", got)
	}
}

func TestJobLifecycle(t *testing.T) {
	j := NewJob(1, 0, 5, 16, 4)
	if j.Abs != 21 {
		t.Fatalf("absolute deadline = %v, want 21", j.Abs)
	}
	if j.Remaining() != 4 || j.Done() {
		t.Fatal("fresh job has wrong remaining/done state")
	}
	j.Progress(1.5)
	if math.Abs(j.Remaining()-2.5) > 1e-12 || j.Done() {
		t.Fatalf("after progress: remaining = %v", j.Remaining())
	}
	j.Progress(2.5)
	if !j.Done() || j.Remaining() != 0 {
		t.Fatal("job not done after consuming full work")
	}
}

func TestJobOverrunPanics(t *testing.T) {
	j := NewJob(0, 0, 0, 10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("over-progress did not panic")
		}
	}()
	j.Progress(3)
}

func TestJobFloatToleranceCompletion(t *testing.T) {
	j := NewJob(0, 0, 0, 10, 1)
	j.Progress(0.3)
	j.Progress(0.3)
	j.Progress(0.3)
	j.Progress(0.1 + 1e-10) // tiny float overshoot must complete, not panic
	if !j.Done() {
		t.Fatal("job with tiny overshoot not marked done")
	}
}

func TestJobSlack(t *testing.T) {
	j := NewJob(0, 0, 0, 16, 4)
	if got := j.Slack(0); got != 12 {
		t.Fatalf("slack at 0 = %v, want 12", got)
	}
	j.Progress(2)
	if got := j.Slack(10); got != 4 {
		t.Fatalf("slack at 10 = %v, want 4", got)
	}
	if got := j.Slack(15); got != -1 {
		t.Fatalf("slack past feasibility = %v, want -1", got)
	}
}

func TestJobMiss(t *testing.T) {
	j := NewJob(0, 0, 0, 5, 1)
	if j.Missed() {
		t.Fatal("fresh job marked missed")
	}
	j.MarkMissed()
	if !j.Missed() {
		t.Fatal("MarkMissed did not stick")
	}
}

func TestEarlierDeadlineTotalOrder(t *testing.T) {
	a := NewJob(0, 0, 0, 10, 1) // abs 10
	b := NewJob(1, 0, 0, 12, 1) // abs 12
	if !EarlierDeadline(a, b) || EarlierDeadline(b, a) {
		t.Fatal("deadline ordering wrong")
	}
	// Equal deadlines → earlier arrival wins.
	c := NewJob(2, 0, 2, 8, 1) // abs 10, arrival 2
	if !EarlierDeadline(a, c) {
		t.Fatal("arrival tie-break wrong")
	}
	// Full tie → task ID.
	d := NewJob(3, 0, 0, 10, 1)
	if !EarlierDeadline(a, d) {
		t.Fatal("task-ID tie-break wrong")
	}
	// Same task → seq.
	e1 := NewJob(5, 0, 0, 10, 1)
	e2 := NewJob(5, 1, 0, 10, 1)
	if !EarlierDeadline(e1, e2) {
		t.Fatal("seq tie-break wrong")
	}
}

func TestEarlierDeadlineIrreflexive(t *testing.T) {
	j := NewJob(0, 0, 0, 10, 1)
	if EarlierDeadline(j, j) {
		t.Fatal("EarlierDeadline(j, j) = true")
	}
}

func TestNewJobValidation(t *testing.T) {
	cases := []func(){
		func() { NewJob(0, 0, -1, 10, 1) },
		func() { NewJob(0, 0, 0, 0, 1) },
		func() { NewJob(0, 0, 0, 10, -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: slack decreases exactly with elapsed time when no work is done,
// and increases exactly with work done at fixed time.
func TestSlackArithmeticProperty(t *testing.T) {
	f := func(dRaw, wRaw, t1Raw, workRaw uint16) bool {
		d := 1 + float64(dRaw%100)
		w := math.Min(float64(wRaw%100)/10, d)
		j := NewJob(0, 0, 0, d, w)
		t1 := float64(t1Raw%50) / 10
		base := j.Slack(0)
		if math.Abs(j.Slack(t1)-(base-t1)) > 1e-9 {
			return false
		}
		work := math.Min(float64(workRaw%100)/20, w)
		j.Progress(work)
		return math.Abs(j.Slack(t1)-(base-t1+work)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// A recycled job struct must come back indistinguishable from a fresh one:
// no execution progress, flags, queue position, policy scratch or
// distribution survives Reset.
func TestJobResetMatchesNewJob(t *testing.T) {
	j := NewJob(3, 7, 10, 20, 5)
	j.Exec = &ExecSpec{Dist: DistUniform, BCRatio: 0.5}
	j.Progress(2)
	j.MarkMissed()
	j.LockS2(12)
	q := NewReadyQueue()
	q.Push(j)

	j.Reset(4, 0, 30, 15, 2)
	if want := NewJob(4, 0, 30, 15, 2); *j != *want {
		t.Fatalf("after Reset: %+v, want %+v", *j, *want)
	}
}
