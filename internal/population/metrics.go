package population

import "mobicache/internal/metrics"

// Metrics groups the timeline instruments the client population drives.
// One instance is shared by the whole cell (the engine wires it from the
// run's metrics registry); every hook method is a nil-safe no-op, so the
// lifecycle calls them unconditionally, exactly like trace.Tracer. The
// instrument methods are nil-receiver-safe themselves, so only the
// Metrics pointer needs guarding.
type Metrics struct {
	// Queries counts completed queries; Resp observes their response
	// times for per-interval percentiles.
	Queries *metrics.Counter
	Resp    *metrics.Histogram
	// Retries counts uplink exchange timeouts; ReportsLost and
	// ReportsCorrupted count reports destroyed by the downlink fault
	// model; EpochDegrades counts recovery-marker-forced cache drops.
	Retries          *metrics.Counter
	ReportsLost      *metrics.Counter
	ReportsCorrupted *metrics.Counter
	EpochDegrades    *metrics.Counter
	// Disconnects counts power-downs; Salvages and Drops the cache
	// outcomes of the invalidation protocol.
	Disconnects *metrics.Counter
	Salvages    *metrics.Counter
	Drops       *metrics.Counter
	// DeadlineMisses counts queries abandoned at their deadline;
	// QueriesShed counts queries abandoned immediately because the
	// bounded uplink tail-dropped their only fetch request.
	DeadlineMisses *metrics.Counter
	QueriesShed    *metrics.Counter
	// Sequence-fence verdicts (armed only under the adversarial-delivery
	// layer): gaps detected, duplicates dropped, reorders dropped.
	IRGaps       *metrics.Counter
	IRDuplicates *metrics.Counter
	IRReorders   *metrics.Counter
	// AoI observes each answered item's age of information (wired only
	// when span/AoI observability is enabled).
	AoI *metrics.Histogram
	// Population-churn transitions (armed only under the churn layer):
	// storm-forced disconnections, process crashes, warm and cold
	// restarts, and verified snapshot rejections.
	StormDisconnects *metrics.Counter
	ClientCrashes    *metrics.Counter
	RestartsWarm     *metrics.Counter
	RestartsCold     *metrics.Counter
	SnapshotRejects  *metrics.Counter
}

func (m *Metrics) queryDone(resp float64) {
	if m != nil {
		m.Queries.Inc()
		m.Resp.Observe(resp)
	}
}

func (m *Metrics) aoi(age float64) {
	if m != nil {
		m.AoI.Observe(age)
	}
}

func (m *Metrics) deadlineMiss() {
	if m != nil {
		m.DeadlineMisses.Inc()
	}
}

func (m *Metrics) queryShed() {
	if m != nil {
		m.QueriesShed.Inc()
	}
}

func (m *Metrics) retry() {
	if m != nil {
		m.Retries.Inc()
	}
}

func (m *Metrics) reportLost() {
	if m != nil {
		m.ReportsLost.Inc()
	}
}

func (m *Metrics) reportCorrupted() {
	if m != nil {
		m.ReportsCorrupted.Inc()
	}
}

func (m *Metrics) epochDegrade() {
	if m != nil {
		m.EpochDegrades.Inc()
	}
}

func (m *Metrics) disconnected() {
	if m != nil {
		m.Disconnects.Inc()
	}
}

func (m *Metrics) salvage() {
	if m != nil {
		m.Salvages.Inc()
	}
}

func (m *Metrics) dropAll() {
	if m != nil {
		m.Drops.Inc()
	}
}

func (m *Metrics) irGap() {
	if m != nil {
		m.IRGaps.Inc()
	}
}

func (m *Metrics) irDuplicate() {
	if m != nil {
		m.IRDuplicates.Inc()
	}
}

func (m *Metrics) irReorder() {
	if m != nil {
		m.IRReorders.Inc()
	}
}

func (m *Metrics) stormDisconnect() {
	if m != nil {
		m.StormDisconnects.Inc()
	}
}

func (m *Metrics) clientCrash() {
	if m != nil {
		m.ClientCrashes.Inc()
	}
}

func (m *Metrics) restartWarm() {
	if m != nil {
		m.RestartsWarm.Inc()
	}
}

func (m *Metrics) restartCold() {
	if m != nil {
		m.RestartsCold.Inc()
	}
}

func (m *Metrics) snapshotReject() {
	if m != nil {
		m.SnapshotRejects.Inc()
	}
}
