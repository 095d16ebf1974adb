package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"heracles/internal/codec"
	"heracles/internal/engine"
)

// Checkpoint files (DESIGN.md §12, §16) are the one format an instance
// checkpoint is stored in on disk and shipped in between daemons: a
// codec frame (magic "HRCF", payload version, CRC-32C over the payload)
// around the binary InstanceCheckpoint encoding. A daemon that crashed
// mid-write (or a disk that flipped bits) must never feed a half-written
// snapshot into a restore — a corrupt file is refused with a clear
// error and the caller falls back to the previous good generation,
// which the writer rotates to "<path>.1" before each replacement. JSON
// is only the REST view of a checkpoint; JSON files are refused.
//
// Payload, in order:
//
//	i64 checkpoint version, string name, string lc, bool compact,
//	f64 speed, i64 max epochs,
//	presence byte + uint32-prefixed ScenarioSpec JSON,
//	uint32-prefixed fleet task indexes,
//	presence byte + uint32-prefixed engine binary checkpoint (HRCB).
//
// The scenario spec stays JSON inside the frame deliberately: it is a
// small, schema-bearing operator artifact (the same bytes the create
// API accepts), not bulk state worth a hand-rolled layout.

// checkpointFileVersion is the payload layout version.
const checkpointFileVersion = 1

// CheckpointMediaType is the content type of a checkpoint file sent as
// a create body: cross-daemon migration ships its checkpoint this way.
const CheckpointMediaType = "application/vnd.heracles.checkpoint"

// AppendCheckpointFile serialises a checkpoint into its file form,
// appending to buf (pass scratch from a previous encode to amortise
// allocation).
func AppendCheckpointFile(buf []byte, cp *InstanceCheckpoint) ([]byte, error) {
	var scJSON []byte
	if cp.Scenario != nil {
		var err error
		if scJSON, err = json.Marshal(cp.Scenario); err != nil {
			return nil, fmt.Errorf("encode checkpoint scenario spec: %w", err)
		}
	}
	return codec.AppendFrame(buf, codec.InstanceMagic, checkpointFileVersion, func(b []byte) []byte {
		w := codec.NewWriter(b)
		w.Int(cp.Version)
		w.String(cp.Name)
		w.String(cp.LC)
		w.Bool(cp.Compact)
		w.F64(cp.Speed)
		w.Int(cp.MaxEpochs)
		w.Bool(cp.Scenario != nil)
		if cp.Scenario != nil {
			w.Bytes32(scJSON)
		}
		w.Ints(cp.FleetTasks)
		w.Bool(cp.Engine != nil)
		if cp.Engine != nil {
			w.Nest(cp.Engine.AppendBinary)
		}
		return w.Bytes()
	}), nil
}

// DecodeCheckpointFile parses a checkpoint file, verifying its frame —
// kind, version and checksum — before the payload is trusted. It is the
// only reader of checkpoint files and checkpoint create bodies.
// Malformed input of any kind returns an error, never a panic.
func DecodeCheckpointFile(data []byte) (*InstanceCheckpoint, error) {
	payload, err := codec.OpenFrame(data, codec.InstanceMagic, checkpointFileVersion)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(payload)
	cp := &InstanceCheckpoint{
		Version:   r.Int(),
		Name:      r.String(),
		LC:        r.String(),
		Compact:   r.Bool(),
		Speed:     r.F64(),
		MaxEpochs: r.Int(),
	}
	if r.Bool() {
		spec := &ScenarioSpec{}
		if raw := r.Bytes32(); r.Err() == nil {
			if err := json.Unmarshal(raw, spec); err != nil {
				return nil, fmt.Errorf("checkpoint scenario spec corrupt: %v", err)
			}
		}
		cp.Scenario = spec
	}
	cp.FleetTasks = r.Ints()
	if r.Bool() {
		raw := r.Bytes32()
		if r.Err() != nil {
			return nil, fmt.Errorf("checkpoint payload corrupt: %v", r.Err())
		}
		eng, err := engine.DecodeCheckpointBinary(raw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint engine state corrupt: %v", err)
		}
		cp.Engine = eng
	}
	if err := r.Expect(); err != nil {
		return nil, fmt.Errorf("checkpoint payload corrupt: %v", err)
	}
	return cp, nil
}

// WriteCheckpointFile atomically replaces path with a checkpoint file,
// rotating the previous generation to "<path>.1" (codec.WriteFile).
func WriteCheckpointFile(path string, cp *InstanceCheckpoint) error {
	data, err := AppendCheckpointFile(nil, cp)
	if err != nil {
		return err
	}
	return codec.WriteFile(path, data)
}

// ReadCheckpointFile reads and verifies one checkpoint file.
func ReadCheckpointFile(path string) (*InstanceCheckpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpointFile(data)
}

// ReadCheckpointFallback reads path, and when it is missing or fails
// verification falls back to the rotated previous generation
// "<path>.1". It returns the path actually restored; when both
// generations are unusable the primary's error is returned (the
// fallback's is folded into it).
func ReadCheckpointFallback(path string) (*InstanceCheckpoint, string, error) {
	cp, err := ReadCheckpointFile(path)
	if err == nil {
		return cp, path, nil
	}
	prev := path + ".1"
	cp2, err2 := ReadCheckpointFile(prev)
	if err2 == nil {
		return cp2, prev, nil
	}
	if os.IsNotExist(err2) {
		return nil, "", err
	}
	return nil, "", fmt.Errorf("%v (fallback %s: %v)", err, prev, err2)
}
