// Package loopstats collects the per-program loop statistics of the
// paper's Table 1: dynamic instruction count, static loop count, average
// iterations per execution, average instructions per iteration, and
// average / maximum nesting level.
package loopstats

import (
	"dynloop/internal/isa"
	"dynloop/internal/loopdet"
)

// Collector accumulates Table-1 statistics as a detector observer. Attach
// it with Detector.AddObserver (or bundle it into one pass of a fused
// multi-pass traversal with harness.NewObserverPass) and read Summary
// after Flush.
type Collector struct {
	// CountOneShots includes single-iteration executions in the execution
	// and iteration totals (the default; see the AblationOneShots
	// experiment).
	CountOneShots bool

	instrs    uint64
	loopIDs   map[isa.Addr]struct{}
	execs     uint64
	iters     uint64
	iterLen   uint64
	iterCount uint64

	depth       int
	inLoop      uint64
	depthWeight uint64
	maxDepth    int
	// stack mirrors the CLS; instructions are attributed to the current
	// iteration of the INNERMOST active loop (as the paper's per-loop
	// iteration sizes are: swim's 279 instr/iter is its inner stencil
	// body, not the whole outer iteration). acc runs parallel to stack —
	// acc[i] counts the instructions of stack[i]'s current iteration —
	// so the per-instruction hot path is a slice increment, not a map
	// operation.
	stack []uint64 // exec IDs, innermost last
	acc   []uint64
}

// NewCollector returns a collector; one-shot executions are counted.
func NewCollector() *Collector {
	return &Collector{
		CountOneShots: true,
		loopIDs:       make(map[isa.Addr]struct{}),
	}
}

// find returns the stack position of exec id (almost always the top), or
// -1.
func (c *Collector) find(id uint64) int {
	for i := len(c.stack) - 1; i >= 0; i-- {
		if c.stack[i] == id {
			return i
		}
	}
	return -1
}

// InstrRun implements loopdet.RunObserver: nesting statistics are
// instruction-weighted over in-loop instructions and iteration sizes use
// innermost attribution. The CLS state is constant across a run (loop
// events only occur at run boundaries), so the whole run collapses into
// a handful of additions, including a single increment of the innermost
// loop's iteration counter.
func (c *Collector) InstrRun(n, _ uint64) {
	c.instrs += n
	if c.depth > 0 {
		c.inLoop += n
		c.depthWeight += uint64(c.depth) * n
		c.acc[len(c.acc)-1] += n
	}
}

// ExecStart implements loopdet.Observer.
func (c *Collector) ExecStart(x *loopdet.Exec) {
	c.loopIDs[x.T] = struct{}{}
	c.depth++
	if c.depth > c.maxDepth {
		c.maxDepth = c.depth
	}
	c.stack = append(c.stack, x.ID)
	c.acc = append(c.acc, 0)
}

// IterStart implements loopdet.Observer: the previous iteration of x just
// ended with the closing branch at index.
func (c *Collector) IterStart(x *loopdet.Exec, index uint64) {
	i := c.find(x.ID)
	if i < 0 {
		return
	}
	// The event for iteration 2 is the detection point: the iteration it
	// closes (iteration 1) was never tracked, so only later boundaries
	// close a measured iteration.
	if x.Iters > 2 {
		c.iterLen += c.acc[i]
		c.iterCount++
	}
	c.acc[i] = 0
}

// ExecEnd implements loopdet.Observer.
func (c *Collector) ExecEnd(x *loopdet.Exec, reason loopdet.EndReason, index uint64) {
	c.depth--
	var n uint64
	ok := false
	if i := c.find(x.ID); i >= 0 {
		n, ok = c.acc[i], true
		copy(c.stack[i:], c.stack[i+1:])
		c.stack = c.stack[:len(c.stack)-1]
		copy(c.acc[i:], c.acc[i+1:])
		c.acc = c.acc[:len(c.acc)-1]
	}
	switch reason {
	case loopdet.EndEvicted, loopdet.EndFlush:
		// The execution did not really finish; drop it from the averages.
		return
	}
	if ok && n > 0 {
		c.iterLen += n
		c.iterCount++
	}
	c.execs++
	c.iters += uint64(x.Iters)
}

// OneShot implements loopdet.Observer.
func (c *Collector) OneShot(t, b isa.Addr, index uint64) {
	c.loopIDs[t] = struct{}{}
	if c.CountOneShots {
		c.execs++
		c.iters++
	}
}

// Summary is one Table-1 row.
type Summary struct {
	// Instrs is the dynamic instruction count.
	Instrs uint64
	// StaticLoops is the number of distinct loop identities observed.
	StaticLoops int
	// Execs and Iters are totals over finished executions (including
	// one-shots when configured).
	Execs, Iters uint64
	// ItersPerExec is Iters/Execs.
	ItersPerExec float64
	// InstrPerIter averages the sizes of detected iterations (iterations
	// 2..last; the first iteration's start is not observable, §2.2),
	// attributing each instruction to the innermost active loop.
	InstrPerIter float64
	// AvgNesting is the average CLS depth over in-loop instructions.
	AvgNesting float64
	// MaxNesting is the deepest CLS occupancy seen.
	MaxNesting int
	// InLoopFrac is the fraction of instructions executed inside at least
	// one loop.
	InLoopFrac float64
}

// Summary returns the accumulated statistics.
func (c *Collector) Summary() Summary {
	s := Summary{
		Instrs:      c.instrs,
		StaticLoops: len(c.loopIDs),
		Execs:       c.execs,
		Iters:       c.iters,
		MaxNesting:  c.maxDepth,
	}
	if c.execs > 0 {
		s.ItersPerExec = float64(c.iters) / float64(c.execs)
	}
	if c.iterCount > 0 {
		s.InstrPerIter = float64(c.iterLen) / float64(c.iterCount)
	}
	if c.inLoop > 0 {
		s.AvgNesting = float64(c.depthWeight) / float64(c.inLoop)
	}
	if c.instrs > 0 {
		s.InLoopFrac = float64(c.inLoop) / float64(c.instrs)
	}
	return s
}
