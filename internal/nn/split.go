package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Two-core products. A large product is cut into two parts that write
// disjoint outputs: the calling goroutine runs the first part and one
// long-lived helper goroutine the second. Every output element is still
// computed by one goroutine, with the operations of the serial loop in
// their order, so a split product is bit-identical to the serial one.

// splitMinWork is the largest task, in multiply-adds, that runs serially
// on its caller: below it the hand-over would eat much of what the second
// core saves. It also keeps the serving paths off the helper: a rollout
// batch of up to four observations through a 256-wide layer
// (4·256·256 = 2^18) stays serial, as do the micro-nets a service trains.
const splitMinWork = 1 << 18

// splitMin is the threshold in force. Tests set it to 0 to split every
// task that has two parts, or past any task's size to split none.
var splitMin = splitMinWork

// helperSpin is how long the helper watches for the next task after
// finishing one before it parks: long enough to bridge the serial code
// between the products of one update, short enough that an idle helper
// does not hold a core.
const helperSpin = 50 * time.Microsecond

// A job is a task cut into items; run does items [lo, hi) as part p (0 on
// the caller, 1 on the helper). The two parts must write disjoint memory,
// and a part may use only its own scratch.
type job interface {
	run(p, lo, hi int)
}

// The helper's states: no task, a task posted, taken by the helper,
// finished by it. The caller that posted a task returns the state to
// taskIdle.
const (
	taskIdle int32 = iota
	taskPosted
	taskTaken
	taskDone
)

// helper is the goroutine that runs the second part of a split task. A
// caller claims it with mu.TryLock and fills one of the argument slots, so
// handing a task over allocates nothing; a caller that finds it claimed by
// another task runs its own serially.
type helper struct {
	mu       sync.Mutex
	start    sync.Once
	state    atomic.Int32
	sleeping atomic.Bool   // the helper parked, or is about to, on wake
	wake     chan struct{} // one token per wake-up of a parked helper

	task   job // the posted task and its second part
	lo, hi int
	args   helperArgs
	acc    []float64 // the second part's scratch
	tile   []float64
}

// helperArgs are the argument slots of the split tasks.
type helperArgs struct {
	mul   mulJob
	atAdd atAddJob
	bt    btJob
	act   actJob
	adam  adamJob
	gcn   gcnJob
}

var splitter = helper{wake: make(chan struct{}, 1)}

// claim returns the helper, started and locked, when a task of the given
// work and item count should be split: more than splitMin multiply-adds,
// at least two items, at least two Ps, and the helper free. Otherwise it
// returns nil and the caller runs the task serially.
func claim(work, items int) *helper {
	if work <= splitMin || items < 2 || runtime.GOMAXPROCS(0) < 2 || !splitter.mu.TryLock() {
		return nil
	}
	splitter.start.Do(func() { go splitter.loop() })
	return &splitter
}

// run does items [0, cut) of j on the caller and [cut, n) on the helper,
// then releases the helper. When the caller finishes first and the helper
// has not yet started (it was parked, say), the caller takes the second
// part back and runs it too.
func (h *helper) run(j job, cut, n int) {
	h.task, h.lo, h.hi = j, cut, n
	h.state.Store(taskPosted)
	if h.sleeping.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
	j.run(0, 0, cut)
	if h.state.CompareAndSwap(taskPosted, taskIdle) {
		j.run(1, cut, n)
	} else {
		for i := 1; h.state.Load() != taskDone; i++ {
			if i%1024 == 0 {
				runtime.Gosched() // in case the helper waits for a P
			}
		}
		h.state.Store(taskIdle)
	}
	h.task, h.args = nil, helperArgs{} // drop the caller's buffers
	h.mu.Unlock()
}

// loop is the helper goroutine: it runs posted second parts for the life
// of the process.
func (h *helper) loop() {
	for {
		h.wait()
		if h.state.CompareAndSwap(taskPosted, taskTaken) {
			h.task.run(1, h.lo, h.hi)
			h.state.Store(taskDone)
		}
	}
}

// wait returns once a task may be posted: while one is within helperSpin
// of the last, otherwise after parking until a caller posts. A caller
// wakes a parked helper only by swapping sleeping from true, so each token
// it sends has one receive waiting.
func (h *helper) wait() {
	for t0 := time.Now(); time.Since(t0) < helperSpin; {
		for i := 0; i < 64; i++ {
			if h.state.Load() == taskPosted {
				return
			}
		}
	}
	h.sleeping.Store(true)
	if h.state.Load() == taskPosted && h.sleeping.CompareAndSwap(true, false) {
		return
	}
	<-h.wake
}
