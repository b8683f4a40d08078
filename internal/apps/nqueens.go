package apps

import (
	"sync/atomic"

	"repro/internal/cilkrt"
	"repro/internal/core"
	"repro/internal/omptask"
)

// The N-Queens benchmark (§VI.E) counts the placements of N queens on an
// N×N board such that no two attack each other.  All versions follow the
// Cilk 5 distribution example: a recursion over board rows trying every
// column.  The task versions keep the last TailLevels levels of the
// recursion inside one sequential task to preserve granularity.

// TailLevels is the minimum number of bottom recursion levels computed by
// one sequential task ("the last 4 levels of recursion are computed by a
// sequential task", §VI.E).
const TailLevels = 4

// maxSpawnDepth bounds how many top levels are decomposed into tasks.
// The paper pins the *tail* at 4 levels on its board sizes; pinning only
// the tail makes the task count grow factorially with the board, and Go
// closures are orders of magnitude heavier than a 2008 Cilk spawn, so
// this reproduction additionally caps the decomposed prefix.  Five
// levels yield thousands of well-sized tasks for any board that takes
// meaningful time (documented as a substitution in DESIGN.md).
const maxSpawnDepth = 4

// spawnDepth returns the recursion depth below which work stays inside
// one sequential task.
func spawnDepth(n int) int {
	d := n - TailLevels
	if d > maxSpawnDepth {
		d = maxSpawnDepth
	}
	if d < 0 {
		d = 0
	}
	return d
}

// queensOK reports whether a queen at (row, col) is compatible with the
// queens already placed in rows 0..row-1 of board.
func queensOK(board []int32, row int, col int32) bool {
	for r := 0; r < row; r++ {
		c := board[r]
		if c == col {
			return false
		}
		if d := int32(row - r); c == col-d || c == col+d {
			return false
		}
	}
	return true
}

// queensCountTail sequentially counts completions of the partial board
// (rows 0..row-1 placed) down to row n.
func queensCountTail(board []int32, row, n int) int64 {
	if row == n {
		return 1
	}
	var total int64
	for col := int32(0); col < int32(n); col++ {
		if queensOK(board, row, col) {
			board[row] = col
			total += queensCountTail(board, row+1, n)
		}
	}
	return total
}

// NQueensSeq counts solutions with the plain sequential recursion, using
// a single solution array with no copies — the paper's point that "a
// sequential version should not contain artifacts necessary for a
// parallel paradigm" (§VI.E).
func NQueensSeq(n int) int64 {
	board := make([]int32, n)
	return queensCountTail(board, 0, n)
}

// ---------------------------------------------------------------------
// Cilk version: "totally recursive and does not make any depth
// distinction" (§VI.E).  Every spawned branch must allocate a copy of
// the partial solution array so siblings do not overwrite each other —
// the artifact SMPSs renaming makes unnecessary.

// NQueensCilk counts solutions on a Cilk-style runtime.
func NQueensCilk(rt *cilkrt.RT, n int) int64 {
	var total atomic.Int64
	rt.Run(func(c *cilkrt.Ctx) {
		board := make([]int32, n)
		cilkQueens(c, board, 0, n, &total)
	})
	return total.Load()
}

func cilkQueens(c *cilkrt.Ctx, board []int32, row, n int, total *atomic.Int64) {
	if row >= spawnDepth(n) {
		total.Add(queensCountTail(board, row, n))
		return
	}
	for col := int32(0); col < int32(n); col++ {
		if queensOK(board, row, col) {
			// Per-task copy of the partial solution (§VI.E: "at each
			// nested task entrance ... allocating a copy of the partial
			// solution array").
			child := make([]int32, n)
			copy(child, board[:row])
			child[row] = col
			c.Spawn(func(c *cilkrt.Ctx) { cilkQueens(c, child, row+1, n, total) })
		}
	}
	c.Sync()
}

// ---------------------------------------------------------------------
// OpenMP 3.0 tasks version: tasks down to the last TailLevels levels,
// then one sequential tail task; hand-made array copies at every task.

// NQueensOMP counts solutions on the OpenMP-tasks-style runtime.
func NQueensOMP(rt *omptask.RT, n int) int64 {
	var total atomic.Int64
	rt.Parallel(func(c *omptask.Ctx) {
		board := make([]int32, n)
		ompQueens(c, board, 0, n, &total)
	})
	return total.Load()
}

func ompQueens(c *omptask.Ctx, board []int32, row, n int, total *atomic.Int64) {
	if row >= spawnDepth(n) {
		total.Add(queensCountTail(board, row, n))
		return
	}
	for col := int32(0); col < int32(n); col++ {
		if queensOK(board, row, col) {
			child := make([]int32, n)
			copy(child, board[:row])
			child[row] = col
			c.Task(func(c *omptask.Ctx) { ompQueens(c, child, row+1, n, total) })
		}
	}
	c.Taskwait()
}

// ---------------------------------------------------------------------
// SMPSs version (§VI.E): the recursion down to the last TailLevels
// levels runs on the main thread; the bottom levels are sequential
// tasks.  The partial solution array is a single tracked object: each
// placement is a tiny inout task and each tail search reads the array.
// "SMPSs does not require duplicating the partial solution array by
// hand.  The runtime takes care of it by renaming the array as needed" —
// a placement over an array that pending tail tasks are still reading
// gets a renamed instance automatically, so all branches proceed in
// parallel from one program-level array.
//
// The main thread prunes with its own shadow of the placements (it may
// not read the tracked array without a barrier); the shadow holds
// exactly the values the tracked version chain carries on this path.

// NQueensSMPSs counts solutions on the SMPSs runtime.
func NQueensSMPSs(ctx *core.Context, n int) (int64, error) {
	board := make([]int32, n)  // tracked object flowing through tasks
	shadow := make([]int32, n) // main-thread pruning mirror

	place := core.NewTaskDef("queens_place", func(a *core.Args) {
		b := a.I32(0)
		b[a.Int(1)] = int32(a.Int(2))
	})
	tail := core.NewTaskDef("queens_tail", func(a *core.Args) {
		b := a.I32(0)
		row := a.Int(2)
		// The tail works on its own stack copy: the In parameter is
		// read-only.
		local := make([]int32, len(b))
		copy(local, b[:row])
		a.I64(1)[0] = queensCountTail(local, row, len(b))
	})

	sub := &submitter{ctx: ctx}
	var cells [][]int64
	var explore func(row int)
	explore = func(row int) {
		if row >= spawnDepth(n) {
			cell := make([]int64, 1)
			cells = append(cells, cell)
			sub.submit(tail, core.In(board), core.Out(cell), core.Value(row))
			return
		}
		for col := int32(0); col < int32(n); col++ {
			if queensOK(shadow, row, col) {
				shadow[row] = col
				sub.submit(place, core.InOut(board), core.Value(row), core.Value(int(col)))
				explore(row + 1)
			}
		}
	}
	explore(0)
	err := ctx.Barrier()
	// The cells die with this call; without this the context would keep
	// a tracker object per cell forever, and every later Barrier would
	// walk them all.
	var total int64
	for _, c := range cells {
		total += c[0]
		ctx.Forget(c)
	}
	if err != nil {
		return 0, err
	}
	if sub.err != nil {
		return 0, sub.err
	}
	return total, nil
}
