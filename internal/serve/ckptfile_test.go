package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heracles/internal/codec"
	"heracles/internal/engine"
)

func testCkpt(epoch int) *InstanceCheckpoint {
	return &InstanceCheckpoint{Version: 1, Name: "t", LC: "websearch", MaxEpochs: epoch}
}

// encodeCkpt is AppendCheckpointFile into a fresh buffer.
func encodeCkpt(t testing.TB, cp *InstanceCheckpoint) []byte {
	t.Helper()
	data, err := AppendCheckpointFile(nil, cp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// fullCkpt builds a checkpoint with every optional section populated —
// a real engine snapshot (telemetry ring, controller, scenario cursor),
// a scenario spec — so the file tests cover the whole payload surface,
// not just the scalar header. The migration spec's flash crowd and BE
// arrive/depart events give the state some texture.
func fullCkpt(t testing.TB) *InstanceCheckpoint {
	t.Helper()
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(migrationSpec(SpeedMax))
	if err != nil {
		t.Fatal(err)
	}
	awaitInstance(t, inst, "run complete", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// jsonEnvelope builds a file in the retired JSON envelope format, byte
// for byte as its writer produced it: an indented envelope around the
// JSON InstanceCheckpoint, with a valid CRC-32C over the compact
// payload. It exists to prove such files are refused.
func jsonEnvelope(t testing.TB, cp *InstanceCheckpoint) []byte {
	t.Helper()
	payload, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(struct {
		Version  int             `json:"envelope_version"`
		Checksum string          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}{1, fmt.Sprintf("crc32c:%08x", crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))), payload}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	cp := testCkpt(42)
	got, err := DecodeCheckpointFile(encodeCkpt(t, cp))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.LC != cp.LC || got.MaxEpochs != cp.MaxEpochs || got.Name != cp.Name || got.Engine != nil {
		t.Fatalf("roundtrip = %+v, want %+v", got, cp)
	}
}

// A one-byte change to a payload field that keeps the layout intact —
// the checkpoint's name "t" becomes "u" — must trip the checksum.
func TestCheckpointFileRejectsCorruption(t *testing.T) {
	data := encodeCkpt(t, testCkpt(7))
	bad := bytes.Replace(data, []byte("\x01\x00\x00\x00t"), []byte("\x01\x00\x00\x00u"), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("test premise broken: name byte not found in %q", data)
	}
	if _, err := DecodeCheckpointFile(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("decode of corrupted file = %v, want checksum mismatch", err)
	}
}

func TestCheckpointFileRejectsTruncation(t *testing.T) {
	data := encodeCkpt(t, testCkpt(7))
	if _, err := DecodeCheckpointFile(data[:len(data)/2]); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("decode of truncated file = %v, want corrupt/truncated error", err)
	}
	if _, err := DecodeCheckpointFile(nil); err == nil {
		t.Fatal("decode of empty file succeeded")
	}
}

// TestCheckpointFileRefusesLegacy pins the one-format rule: every
// encoding that is not an instance checkpoint file is refused with an
// error naming what it holds — never restored. That covers the retired
// JSON forms (a bare InstanceCheckpoint, which older builds restored
// with no checksum at all, and the CRC-carrying JSON envelope) and the
// other checkpoint kind in either direction: an engine checkpoint file
// handed to the instance reader, an instance file handed to
// engine.ReadFile (cmd/cluster -resume).
func TestCheckpointFileRefusesLegacy(t *testing.T) {
	cp := testCkpt(9)
	cp.Engine = &engine.Checkpoint{Version: engine.CheckpointVersion, Epoch: 3}
	bare, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	engPath := filepath.Join(dir, "run.ckpt")
	if err := cp.Engine.WriteFile(engPath); err != nil {
		t.Fatal(err)
	}
	engFile, err := os.ReadFile(engPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, data, want string
	}{
		{"bare JSON", string(bare), "JSON"},
		{"JSON envelope", string(jsonEnvelope(t, cp)), "JSON"},
		{"engine checkpoint file", string(engFile), "holds an engine checkpoint, want an instance checkpoint"},
		{"unframed engine checkpoint", string(cp.Engine.EncodeBinary()), "HRCB"},
	} {
		got, err := DecodeCheckpointFile([]byte(c.data))
		if err == nil || got != nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode = %v, %v; want an error containing %q", c.name, got, err, c.want)
		}
	}

	instPath := filepath.Join(dir, "i1.ckpt")
	if err := WriteCheckpointFile(instPath, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadFile(instPath); err == nil || !strings.Contains(err.Error(), "holds an instance checkpoint, want an engine checkpoint") {
		t.Fatalf("engine.ReadFile of an instance checkpoint = %v, want a kind mismatch", err)
	}
}

func TestCheckpointFileRotationAndFallback(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i1.ckpt")

	if err := WriteCheckpointFile(path, testCkpt(1)); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := WriteCheckpointFile(path, testCkpt(2)); err != nil {
		t.Fatalf("write 2: %v", err)
	}

	// Primary carries generation 2, the rotated file generation 1.
	cp, src, err := ReadCheckpointFallback(path)
	if err != nil || src != path || cp.MaxEpochs != 2 {
		t.Fatalf("fallback read = %+v from %q (%v), want gen 2 from primary", cp, src, err)
	}
	prev, err := ReadCheckpointFile(path + ".1")
	if err != nil || prev.MaxEpochs != 1 {
		t.Fatalf("rotated read = %+v (%v), want gen 1", prev, err)
	}

	// Corrupt the primary mid-file: the fallback restores generation 1.
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupting primary: %v", err)
	}
	cp, src, err = ReadCheckpointFallback(path)
	if err != nil || src != path+".1" || cp.MaxEpochs != 1 {
		t.Fatalf("fallback after corruption = %+v from %q (%v), want gen 1 from rotated file", cp, src, err)
	}

	// Both generations corrupt: a clear error naming both.
	if err := os.WriteFile(path+".1", []byte("{half a json"), 0o644); err != nil {
		t.Fatalf("corrupting rotated: %v", err)
	}
	if _, _, err := ReadCheckpointFallback(path); err == nil || !strings.Contains(err.Error(), "fallback") {
		t.Fatalf("fallback with both corrupt = %v, want combined error", err)
	}

	// Missing primary with no rotated file: plain not-exist error.
	missing := filepath.Join(dir, "nope.ckpt")
	if _, _, err := ReadCheckpointFallback(missing); !os.IsNotExist(err) {
		t.Fatalf("fallback on missing file = %v, want not-exist", err)
	}
}

// TestBinaryCheckpointFileRoundTrip round-trips a full checkpoint: the
// encoding is deterministic, and the decoded value has the same JSON
// view as the original.
func TestBinaryCheckpointFileRoundTrip(t *testing.T) {
	cp := fullCkpt(t)

	bin := encodeCkpt(t, cp)
	if !bytes.HasPrefix(bin, []byte(codec.InstanceMagic)) {
		t.Fatalf("file opens with %q, want the %s magic", bin[:4], codec.InstanceMagic)
	}
	if again := encodeCkpt(t, cp); !bytes.Equal(bin, again) {
		t.Fatal("checkpoint file encoding is not deterministic")
	}
	got, err := DecodeCheckpointFile(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	a, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("decoded checkpoint differs from the encoded one")
	}
	if got.Engine == nil || got.Engine.Epoch != cp.Engine.Epoch {
		t.Fatalf("decoded engine epoch = %+v, want %d", got.Engine, cp.Engine.Epoch)
	}
}

// TestBinaryCheckpointFileRejectsCorruption covers the file format's
// refusal surface: bit flips, truncation at every depth, version skew —
// always an error, never a panic or a silently wrong checkpoint.
func TestBinaryCheckpointFileRejectsCorruption(t *testing.T) {
	cp := testCkpt(7)
	cp.Engine = &engine.Checkpoint{Version: engine.CheckpointVersion, Epoch: 3}
	data := encodeCkpt(t, cp)

	// Any single payload bit flip must trip the CRC.
	for _, off := range []int{codec.FrameHeaderLen, len(data) / 2, len(data) - 1} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xff
		if _, err := DecodeCheckpointFile(bad); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flip at %d: decode = %v, want checksum mismatch", off, err)
		}
	}

	// Version skew is refused by name.
	skew := append([]byte(nil), data...)
	skew[4], skew[5] = 0xff, 0xff
	if _, err := DecodeCheckpointFile(skew); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version skew decode = %v, want version error", err)
	}

	// Truncation anywhere errors (prefixes shorter than the header
	// included).
	for cut := 0; cut < len(data); cut += 5 {
		if _, err := DecodeCheckpointFile(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}
}

// TestBinaryCheckpointFileRotationAndFallback covers a crash between
// the writer's two renames: the primary has rotated to "<path>.1" but
// its replacement never landed, and the fallback still restores it.
func TestBinaryCheckpointFileRotationAndFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "i1.ckpt")
	if err := WriteCheckpointFile(path, testCkpt(1)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	cp, src, err := ReadCheckpointFallback(path)
	if err != nil || src != path+".1" || cp.MaxEpochs != 1 {
		t.Fatalf("fallback read = %+v from %q (%v), want gen 1 from the orphaned rotated file", cp, src, err)
	}
}
