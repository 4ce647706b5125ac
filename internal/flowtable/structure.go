package flowtable

import (
	"sync"

	"catcam/internal/core"
)

// This file is the flowtable half of the state observatory: the
// pipeline aggregates its tables' structural derivations behind the
// same Source surface a device or cluster exposes, so one observatory
// can watch a whole multi-table pipeline. Subtables are re-indexed
// onto a dense pipeline-wide heatmap row (tables in pipeline order)
// and tagged with their table ID.

// structState holds the pipeline's reusable per-table derive buffers,
// indexed by position in pipeline order.
type structState struct {
	mu      sync.Mutex
	scratch []core.Structure //catcam:guarded-by mu
}

// DeriveStructure derives every table's backend structure and merges
// them into dst (allocated when nil) with core.Structure.Merge, each
// table's subtables tagged with its table ID. Lock-free with respect
// to classify and update traffic.
func (p *Pipeline) DeriveStructure(dst *core.Structure) *core.Structure {
	if dst == nil {
		dst = &core.Structure{}
	}
	p.structs.mu.Lock()
	defer p.structs.mu.Unlock()
	if p.structs.scratch == nil {
		p.structs.scratch = make([]core.Structure, len(p.order))
	}
	dst.Reset()
	for i, id := range p.order {
		dst.Merge(p.tables[id].dev.DeriveStructure(&p.structs.scratch[i]), -1, id)
	}
	dst.Finish()
	return dst
}

// OnStatsReset registers fn with every table's backend: a stats reset
// on any table clears the observatory state derived from the pipeline.
func (p *Pipeline) OnStatsReset(fn func()) {
	for _, id := range p.order {
		p.tables[id].dev.OnStatsReset(fn)
	}
}
