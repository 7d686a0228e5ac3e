package nn

import "math"

// SplitEveryTask sets the split threshold so that every task with two
// parts is split with the helper, for the tests that hold two-core
// products to serial ones. It returns the restore.
func SplitEveryTask() (restore func()) { return setSplitMin(0) }

// SplitNoTask sets the split threshold so that no task is split. It
// returns the restore.
func SplitNoTask() (restore func()) { return setSplitMin(math.MaxInt) }

func setSplitMin(v int) func() {
	old := splitMin
	splitMin = v
	return func() { splitMin = old }
}

// splitModes are the two settings a split-against-serial test runs under.
var splitModes = []struct {
	name string
	set  func() (restore func())
}{{"split", SplitEveryTask}, {"serial", SplitNoTask}}
