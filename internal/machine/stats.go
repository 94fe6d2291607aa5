package machine

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Stats counts a processor's traffic on both sides: messages and
// float64 values sent, and messages and values received.
// Communication-set quality is the second half of the paper's
// compilation problem (Section 7), and examples report these counters
// the way the HPF literature reports message counts and volumes.
type Stats struct {
	MessagesSent     int64
	ValuesSent       int64
	MessagesReceived int64
	ValuesReceived   int64
}

// statCounters is embedded per processor; updated with atomics so Stats
// may be read while a Run is in progress.
type statCounters struct {
	messagesSent atomic.Int64
	valuesSent   atomic.Int64
	messagesRecv atomic.Int64
	valuesRecv   atomic.Int64
}

// Process-wide telemetry: machine counters aggregate over every Machine
// in the process, alongside the per-Machine Stats API. Latency
// histograms use power-of-two nanosecond buckets.
var (
	telMessagesSent = telemetry.Default().Counter("machine.messages_sent")
	telValuesSent   = telemetry.Default().Counter("machine.values_sent")
	telMessagesRecv = telemetry.Default().Counter("machine.messages_received")
	telValuesRecv   = telemetry.Default().Counter("machine.values_received")
	telSendBytes    = telemetry.Default().Histogram("machine.send_bytes")
	telRecvWaitNs   = telemetry.Default().Histogram("machine.recv_wait_ns")
	telBarrierNs    = telemetry.Default().Histogram("machine.barrier_wait_ns")
)

// Robustness-layer telemetry: injected faults by kind and detected
// deadlocks (machine.watchdog.trips; see README, Robustness).
var (
	telFaultsDropped    = telemetry.Default().Counter("machine.faults.dropped")
	telFaultsDuplicated = telemetry.Default().Counter("machine.faults.duplicated")
	telFaultsDelayed    = telemetry.Default().Counter("machine.faults.delayed")
	telFaultsReordered  = telemetry.Default().Counter("machine.faults.reordered")
	telFaultsCrashes    = telemetry.Default().Counter("machine.faults.crashes")
	telWatchdogTrips    = telemetry.Default().Counter("machine.watchdog.trips")
)

// Stats returns a snapshot of processor rank's traffic counters.
func (m *Machine) Stats(rank int) Stats {
	p := m.procs[rank]
	return Stats{
		MessagesSent:     p.stats.messagesSent.Load(),
		ValuesSent:       p.stats.valuesSent.Load(),
		MessagesReceived: p.stats.messagesRecv.Load(),
		ValuesReceived:   p.stats.valuesRecv.Load(),
	}
}

// TotalStats sums the counters over all processors.
func (m *Machine) TotalStats() Stats {
	var t Stats
	for r := range m.procs {
		s := m.Stats(r)
		t.MessagesSent += s.MessagesSent
		t.ValuesSent += s.ValuesSent
		t.MessagesReceived += s.MessagesReceived
		t.ValuesReceived += s.ValuesReceived
	}
	return t
}

// ResetStats zeroes every processor's counters.
func (m *Machine) ResetStats() {
	for _, p := range m.procs {
		p.stats.messagesSent.Store(0)
		p.stats.valuesSent.Store(0)
		p.stats.messagesRecv.Store(0)
		p.stats.valuesRecv.Store(0)
	}
}
