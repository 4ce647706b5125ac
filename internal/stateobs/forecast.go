package stateobs

// The capacity forecaster: a least-squares linear fit over the frame
// ring projecting when the array runs out of structural headroom. Two
// trajectories are fit independently — entries(t) toward the fill
// limit (time-to-fill) and the fragmentation index toward the stall
// threshold (time-to-stall) — because they fail differently: a table
// can stall on fragmented intervals (every insert evicting or spending
// a fresh subtable) long before raw occupancy reaches 100%, and the
// §VIII-B fill experiments show occupancy climbing smoothly while the
// interval structure degrades. Headroom is healthy when neither
// projection lands inside the configured horizon.

// Forecast is one capacity-headroom projection.
type Forecast struct {
	// Valid reports whether enough ring history existed to fit a trend
	// (>= 3 frames spanning > 0 time). An invalid forecast still flags
	// unhealthy headroom when the array is already at a limit.
	Valid bool `json:"valid"`
	// Frames and WindowSeconds describe the fitted history.
	Frames        int     `json:"frames"`
	WindowSeconds float64 `json:"window_seconds"`
	// FillPerSec is the fitted entry growth rate; FragPerSec the fitted
	// fragmentation-index growth rate.
	FillPerSec float64 `json:"fill_per_sec"`
	FragPerSec float64 `json:"frag_per_sec"`
	// TimeToFillSeconds projects when occupancy reaches the fill limit;
	// TimeToStallSeconds when the fragmentation index reaches the stall
	// threshold. -1 means no approaching trend (flat or draining). 0
	// means already there.
	TimeToFillSeconds  float64 `json:"time_to_fill_seconds"`
	TimeToStallSeconds float64 `json:"time_to_stall_seconds"`
	// HorizonSeconds echoes the configured horizon; HeadroomOK is the
	// verdict: no projection inside the horizon and no limit already
	// breached. Reason names the first failing condition.
	HorizonSeconds float64 `json:"horizon_seconds"`
	HeadroomOK     bool    `json:"headroom_ok"`
	Reason         string  `json:"reason,omitempty"`
}

// forecastLocked fits the ring and renders the verdict. Caller holds
// o.mu; allocation-free.
func (o *Observatory) forecastLocked() Forecast {
	f := Forecast{
		Frames:             o.count,
		TimeToFillSeconds:  -1,
		TimeToStallSeconds: -1,
		HorizonSeconds:     o.cfg.Horizon.Seconds(),
		HeadroomOK:         true,
	}
	if o.count == 0 {
		return f
	}
	lastIdx := (o.head - 1 + len(o.ring)) % len(o.ring)
	last := &o.ring[lastIdx]
	capacity := 0
	if o.cur != nil {
		capacity = o.cur.Capacity
	}

	// Already over a limit: unhealthy regardless of trend.
	if last.Occupancy >= fillLimit {
		f.TimeToFillSeconds = 0
		f.HeadroomOK = false
		f.Reason = "occupancy at fill limit"
	}
	if last.FragIndex >= fragStall {
		f.TimeToStallSeconds = 0
		if f.HeadroomOK {
			f.HeadroomOK = false
			f.Reason = "fragmentation at stall threshold"
		}
	}

	if o.count < 3 {
		return f
	}
	firstIdx := (o.head - o.count + len(o.ring)) % len(o.ring)
	t0 := o.ring[firstIdx].At
	window := last.At.Sub(t0).Seconds()
	if window <= 0 {
		return f
	}
	f.Valid = true
	f.WindowSeconds = window

	// Least-squares slopes of entries(t) and frag(t) over the ring.
	var n, sx, sxx, syFill, sxyFill, syFrag, sxyFrag float64
	for i := 0; i < o.count; i++ {
		fr := &o.ring[(firstIdx+i)%len(o.ring)]
		x := fr.At.Sub(t0).Seconds()
		n++
		sx += x
		sxx += x * x
		yf := float64(fr.Entries)
		syFill += yf
		sxyFill += x * yf
		yg := fr.FragIndex
		syFrag += yg
		sxyFrag += x * yg
	}
	det := n*sxx - sx*sx
	if det <= 0 {
		return f
	}
	f.FillPerSec = (n*sxyFill - sx*syFill) / det
	f.FragPerSec = (n*sxyFrag - sx*syFrag) / det

	const eps = 1e-12
	if f.TimeToFillSeconds != 0 && capacity > 0 && f.FillPerSec > eps {
		remaining := fillLimit*float64(capacity) - float64(last.Entries)
		if remaining < 0 {
			remaining = 0
		}
		f.TimeToFillSeconds = remaining / f.FillPerSec
	}
	if f.TimeToStallSeconds != 0 && f.FragPerSec > eps {
		remaining := fragStall - last.FragIndex
		if remaining < 0 {
			remaining = 0
		}
		f.TimeToStallSeconds = remaining / f.FragPerSec
	}

	if f.HeadroomOK {
		switch {
		case f.TimeToFillSeconds >= 0 && f.TimeToFillSeconds < f.HorizonSeconds:
			f.HeadroomOK = false
			f.Reason = "time-to-fill inside horizon"
		case f.TimeToStallSeconds >= 0 && f.TimeToStallSeconds < f.HorizonSeconds:
			f.HeadroomOK = false
			f.Reason = "time-to-stall inside horizon"
		}
	}
	return f
}
