package grid

import "dynloop/internal/trace"

// CellPlanes builds cell c's analysis pass and reports the event facets
// it negotiates. ok is false for composite cells (the oracle kind),
// which own their traversals instead of contributing a pass.
func CellPlanes(c Cell) (p trace.Planes, ok bool) {
	if c.mk == nil {
		return 0, false
	}
	pass, _ := c.mk()
	return trace.PlanesOf(pass), true
}

// CellGroupKey is the fusion group cell c joins in a fused Run.
func CellGroupKey(c Cell) string { return c.cfg.groupKey(c.bench.Name, c.cfg.budget()) }
