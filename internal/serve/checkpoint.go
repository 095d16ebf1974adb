package serve

import (
	"fmt"
	"time"

	"heracles/internal/engine"
	"heracles/internal/workload"
)

// InstanceCheckpoint is the wire form of one instance's full simulation
// state: the engine checkpoint (machine, controller, scenario cursor,
// epoch index) plus the instance-level metadata needed to rebuild it —
// the LC workload and hardware generation to resolve calibrations
// against, and the active scenario's JSON spec so the restoring side can
// reconstruct the load shape the engine checkpoint only references by
// name. POST /api/v1/instances/{id}/checkpoint produces one; passing it
// as InstanceSpec.Restore on create consumes it, on the same server
// (pause/fast-forward) or a different one (migration).
//
// Tasks dispatched by the fleet job scheduler are captured as plain
// machine state and indexed by FleetTasks; a restore prunes them. Their
// jobs stay with the origin server's scheduler — which evicts and
// requeues them when the origin instance crashes or disappears — so
// keeping the tasks alive would silently double-run the same work.
type InstanceCheckpoint struct {
	Version   int           `json:"version"`
	Name      string        `json:"name,omitempty"`
	LC        string        `json:"lc"`
	Compact   bool          `json:"compact,omitempty"`
	Speed     float64       `json:"speed,omitempty"`
	MaxEpochs int           `json:"max_epochs,omitempty"`
	Scenario  *ScenarioSpec `json:"scenario,omitempty"`

	// FleetTasks indexes the machine's BE task list at snapshot time,
	// marking tasks owned by the fleet job scheduler.
	FleetTasks []int `json:"fleet_tasks,omitempty"`

	Engine *engine.Checkpoint `json:"engine"`
}

// Checkpoint snapshots the instance between epochs — the mailbox
// serialises it with the simulation, so the snapshot is a consistent
// epoch boundary. The instance keeps running; pause it by restoring the
// checkpoint into a fresh instance and deleting this one.
func (i *Instance) Checkpoint() (*InstanceCheckpoint, error) {
	var cp *InstanceCheckpoint
	err := i.Do(func() error {
		cp = i.buildCheckpoint()
		return nil
	})
	return cp, err
}

// buildCheckpoint assembles the checkpoint; stepMu must be held (the
// supervisor also calls it directly, on its restart-checkpoint cadence).
func (i *Instance) buildCheckpoint() *InstanceCheckpoint {
	start := time.Now()
	defer func() { checkpointHist.Observe(time.Since(start)) }()
	var spec *ScenarioSpec
	if i.scenarioSpec != nil {
		s := *i.scenarioSpec
		spec = &s
	}
	cp := &InstanceCheckpoint{
		Version:   engine.CheckpointVersion,
		Name:      i.name,
		LC:        i.lcName,
		Compact:   i.compact,
		Speed:     i.speed,
		MaxEpochs: int(i.maxEpochs),
		Scenario:  spec,
		Engine:    i.eng.Snapshot(),
	}
	for idx, be := range i.m.BEs() {
		if i.eng.OwnedBE(be) {
			cp.FleetTasks = append(cp.FleetTasks, idx)
		}
	}
	return cp
}

// refreshRestartCheckpoint re-snapshots the instance into the
// supervisor's retained restart checkpoint, encoding straight into the
// previous generation's buffer so the steady-state refresh reuses one
// allocation. On an encode failure the previous good checkpoint is kept
// — a stale restart point beats none. stepMu must be held.
func (i *Instance) refreshRestartCheckpoint() {
	data, err := AppendCheckpointFile(i.lastCP[:0], i.buildCheckpoint())
	if err == nil {
		i.lastCP = data
	}
}

// validateCheckpoint rejects a restore request whose checkpoint is
// structurally unusable before any simulation state is built: version
// mismatches, missing engine state, unknown workload names (which would
// otherwise panic inside the calibration catalogue), or a scenario
// recorded in the engine without its JSON spec alongside.
func validateCheckpoint(cp *InstanceCheckpoint) error {
	if cp.Version != engine.CheckpointVersion {
		return fmt.Errorf("checkpoint version %d, this server reads version %d", cp.Version, engine.CheckpointVersion)
	}
	if cp.Engine == nil {
		return fmt.Errorf("checkpoint missing engine state")
	}
	if len(cp.Engine.Machines) != 1 {
		return fmt.Errorf("instance checkpoint carries %d machines, want 1", len(cp.Engine.Machines))
	}
	if _, ok := workload.LCByName(cp.LC); !ok {
		return fmt.Errorf("unknown LC workload %q", cp.LC)
	}
	m := cp.Engine.Machines[0]
	if m.LC == nil {
		return fmt.Errorf("checkpoint machine has no LC task")
	}
	if m.LC.Workload != cp.LC {
		return fmt.Errorf("checkpoint LC %q does not match machine LC %q", cp.LC, m.LC.Workload)
	}
	for _, be := range m.BEs {
		if err := checkBEName(be.Workload); err != nil {
			return err
		}
	}
	for _, idx := range cp.FleetTasks {
		if idx < 0 || idx >= len(m.BEs) {
			return fmt.Errorf("checkpoint fleet task index %d outside the machine's %d BE tasks", idx, len(m.BEs))
		}
	}
	if cp.Engine.Sched != nil {
		for _, j := range cp.Engine.Sched.Jobs {
			if err := checkBEName(j.Spec.Workload); err != nil {
				return err
			}
		}
	}
	if cp.Engine.Scenario != nil && cp.Scenario == nil {
		return fmt.Errorf("checkpoint has an active scenario (%q) but no scenario spec to rebuild it", cp.Engine.Scenario.Name)
	}
	return nil
}
