package simulator

import (
	"boedag/internal/cluster"
	"boedag/internal/obs"
)

// Event.Demand is indexed by cluster.Resource; obs mirrors the size
// instead of importing cluster, so pin the two constants together here.
var _ [obs.NumDemandResources]float64 = [cluster.NumResources]float64{}

// simMetrics holds the simulator's pre-resolved metric instruments so the
// hot loop never pays the registry's name lookup. Nil when metrics are
// off; every update site guards on that.
type simMetrics struct {
	tasksScheduled *obs.Counter
	tasksFinished  *obs.Counter
	taskRetries    *obs.Counter
	loopEvents     *obs.Counter
	states         *obs.Counter
	taskDur        *obs.Histogram
	queueWait      *obs.Histogram
	stateDur       *obs.Histogram
	util           [cluster.NumResources]*obs.Gauge
}

func newSimMetrics(reg *obs.Registry) *simMetrics {
	if reg == nil {
		return nil
	}
	m := &simMetrics{
		tasksScheduled: reg.Counter("sim_tasks_scheduled"),
		tasksFinished:  reg.Counter("sim_tasks_finished"),
		taskRetries:    reg.Counter("sim_task_retries"),
		loopEvents:     reg.Counter("sim_loop_events"),
		states:         reg.Counter("sim_states"),
		taskDur:        reg.Histogram("sim_task_duration_s"),
		queueWait:      reg.Histogram("sim_queue_wait_s"),
		stateDur:       reg.Histogram("sim_state_duration_s"),
	}
	for _, r := range cluster.Resources() {
		m.util[r] = reg.Gauge("sim_mean_utilization_" + r.String())
	}
	return m
}

// recordFinalUtilization folds the per-state time-weighted utilization
// into the run-level mean gauges.
func (m *simMetrics) recordFinalUtilization(states []StateRecord) {
	var sum [cluster.NumResources]float64
	total := 0.0
	for _, st := range states {
		d := st.Duration().Seconds()
		for r := 0; r < cluster.NumResources; r++ {
			sum[r] += st.Utilization[r] * d
		}
		total += d
	}
	if total <= 0 {
		return
	}
	for r := 0; r < cluster.NumResources; r++ {
		m.util[r].Set(sum[r] / total)
	}
}
