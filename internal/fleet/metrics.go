package fleet

import "repro/internal/obsv"

// Fleet lifecycle event types, emitted to Options.Events as JSON lines.
// Msg carries the replica or job ID; V carries the numeric payload.
const (
	// EventReplicaUp records a replica registering or rejoining the ring
	// (replicas_alive in V).
	EventReplicaUp = "replica_up"
	// EventReplicaSuspect records a replica whose heartbeat has gone quiet
	// past SuspectAfter (quiet_seconds in V).
	EventReplicaSuspect = "replica_suspect"
	// EventReplicaDead records a replica declared dead — heartbeat quiet
	// past DeadAfter, or a graceful deregistration (quiet_seconds and the
	// in-flight jobs being failed over in V).
	EventReplicaDead = "replica_dead"
	// EventJobHandoff records one in-flight job re-served from a dead
	// replica to a surviving one; Msg is "jobID from->to", V carries the
	// job's total handoffs and whether the target already owned the work
	// (adopted 0/1).
	EventJobHandoff = "job_handoff"
	// EventDeltaFallback records a delta job placed off its base
	// fingerprint's home shard (the shard was suspect or dead): the job
	// planned cold on a fallback replica instead of warm-starting
	// (home_suspect 0/1 in V).
	EventDeltaFallback = "delta_fallback"
)

// metrics bundles the nptsn_fleet_* instrument handles; none is nil.
type metrics struct {
	alive   *obsv.Gauge
	suspect *obsv.Gauge
	dead    *obsv.Gauge

	submitted  *obsv.Counter
	deduped    *obsv.Counter
	adopted    *obsv.Counter
	failovers  *obsv.Counter
	handoffs   *obsv.Counter
	fallback   *obsv.Counter
	hedged     *obsv.Counter
	deltas     *obsv.Counter
	deltaFall  *obsv.Counter
	heartbeats *obsv.Counter
	registered *obsv.Counter
	eventErrs  *obsv.Counter
}

// newMetrics registers the handles on reg, or on a private registry when
// reg is nil, so call sites never check.
func newMetrics(reg *obsv.Registry) *metrics {
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	return &metrics{
		alive:      reg.Gauge("nptsn_fleet_replicas_alive", "Replicas with a fresh heartbeat."),
		suspect:    reg.Gauge("nptsn_fleet_replicas_suspect", "Replicas whose heartbeat is quiet past the suspect threshold."),
		dead:       reg.Gauge("nptsn_fleet_replicas_dead", "Replicas declared dead (heartbeat quiet past the dead threshold, or deregistered)."),
		submitted:  reg.Counter("nptsn_fleet_jobs_submitted_total", "Jobs accepted by the coordinator and placed on a replica."),
		deduped:    reg.Counter("nptsn_fleet_jobs_deduped_total", "Submissions answered from the coordinator's fingerprint table instead of re-placed."),
		adopted:    reg.Counter("nptsn_fleet_jobs_adopted_total", "Placements that adopted a job the target replica already owned (by fingerprint) instead of submitting fresh work."),
		failovers:  reg.Counter("nptsn_fleet_failovers_total", "Replica deaths that triggered a failover sweep of their in-flight jobs."),
		handoffs:   reg.Counter("nptsn_fleet_job_handoffs_total", "In-flight jobs re-served from a dead replica to a surviving one."),
		fallback:   reg.Counter("nptsn_fleet_ring_fallback_routes_total", "Submissions routed past a dead home shard to the next replica on the ring."),
		hedged:     reg.Counter("nptsn_fleet_hedged_routes_total", "Submissions routed around a suspect (not yet dead) home shard."),
		deltas:     reg.Counter("nptsn_fleet_delta_jobs_total", "Delta submissions placed by the coordinator (routed to the base fingerprint's home shard)."),
		deltaFall:  reg.Counter("nptsn_fleet_delta_fallbacks_total", "Delta submissions placed off the base's home shard; they planned cold instead of warm-starting."),
		heartbeats: reg.Counter("nptsn_fleet_heartbeats_total", "Heartbeats received from replicas."),
		registered: reg.Counter("nptsn_fleet_registrations_total", "Replica registrations (first contact and rejoins)."),
		eventErrs:  reg.Counter("nptsn_fleet_event_errors_total", "Lifecycle events the sink failed to record."),
	}
}

func (m *metrics) setStates(alive, suspect, dead int) {
	m.alive.Set(float64(alive))
	m.suspect.Set(float64(suspect))
	m.dead.Set(float64(dead))
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
