package flowtable

import "catcam/internal/core"

// This file is the flowtable half of the state observatory: the
// pipeline aggregates its tables' structural derivations behind the
// same Source surface a device or cluster exposes, so one observatory
// can watch a whole multi-table pipeline. Subtables are re-indexed
// onto a dense pipeline-wide heatmap row (tables in pipeline order)
// and tagged with their table ID.

// DeriveStructure derives every table's backend structure and merges
// them into dst (allocated when nil) with core.Structure.Merge, each
// table's subtables tagged with its table ID. Lock-free with respect
// to classify and update traffic: a derive takes the pipeline's
// per-table buffers and puts them back, so a concurrent derive
// allocates its own instead of waiting.
func (p *Pipeline) DeriveStructure(dst *core.Structure) *core.Structure {
	if dst == nil {
		dst = &core.Structure{}
	}
	parts := p.structs.Swap(nil)
	if parts == nil {
		s := make([]core.Structure, len(p.tables))
		parts = &s
	}
	dst.Reset()
	for i, t := range p.tables {
		dst.Merge(t.dev.DeriveStructure(&(*parts)[i]), -1, t.cfg.ID)
	}
	dst.Finish()
	p.structs.Store(parts)
	return dst
}

// OnStatsReset registers fn with every table's backend: a stats reset
// on any table clears the observatory state derived from the pipeline.
func (p *Pipeline) OnStatsReset(fn func()) {
	for _, t := range p.tables {
		t.dev.OnStatsReset(fn)
	}
}
