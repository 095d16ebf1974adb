package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"heracles/internal/codec"
	"heracles/internal/engine"
)

// FuzzDecodeCheckpointFile hammers the checkpoint file decoder, the
// engine checkpoint file reader that shares its frame, and the
// ReadCheckpointFallback path with arbitrary bytes: truncated,
// bit-flipped and CRC-mismatched inputs must come back as errors —
// never a panic, and never a trusted payload that fails verification.
// Each reader accepts only its own frame kind, so JSON (the retired
// file formats, kept as seeds) and the other kind are must-refuse
// inputs. A valid rotated ".1" generation sits next to every fuzzed
// primary, so the fallback must always recover regardless of how
// mangled the primary is.
func FuzzDecodeCheckpointFile(f *testing.F) {
	// A genuine checkpoint from a live instance seeds the
	// structure-aware mutations.
	srv := New(Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
	if err != nil {
		f.Fatalf("create: %v", err)
	}
	awaitInstance(f, inst, "seed instance done", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		f.Fatalf("checkpoint: %v", err)
	}

	// The retired JSON envelope and its failure surface: all refused.
	valid := jsonEnvelope(f, cp)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // truncated mid-payload
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip inside the payload
	f.Add(flipped)
	// Intact payload under a stale checksum header.
	f.Add(bytes.Replace(valid, []byte(`"crc32c:`), []byte(`"crc32c:0`), 1))
	// Bare JSON checkpoint, which older builds restored unchecked.
	f.Add([]byte(`{"version":1,"lc":"websearch","engine":null}`))
	f.Add([]byte(`{"envelope_version":1,"checksum":"crc32c:00000000","payload":{}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))

	// The checkpoint file's failure surface: truncations, payload bit
	// flips (CRC mismatch), version skew, oversized length claims deep
	// in the nested engine encoding.
	validBin := encodeCkpt(f, cp)
	f.Add(validBin)
	f.Add(validBin[:4])               // bare magic
	f.Add(validBin[:len(validBin)/2]) // truncated mid-payload
	binFlipped := append([]byte(nil), validBin...)
	binFlipped[len(binFlipped)/2] ^= 0x40
	f.Add(binFlipped)
	binSkew := append([]byte(nil), validBin...)
	binSkew[4], binSkew[5] = 0xff, 0xff
	f.Add(binSkew)
	// Inflate a length prefix deep in the payload; the CRC is left stale
	// too, so this doubles as a checksum-mismatch seed for mutation.
	binBomb := append([]byte(nil), validBin...)
	for i := codec.FrameHeaderLen; i+4 <= len(binBomb); i++ {
		if binBomb[i] == 0 && binBomb[i+1] == 0 && binBomb[i+2] == 0 && binBomb[i+3] == 0 {
			binBomb[i], binBomb[i+1], binBomb[i+2], binBomb[i+3] = 0xff, 0xff, 0xff, 0x7f
			break
		}
	}
	f.Add(binBomb)

	// An engine checkpoint file (the other frame kind) and a corrupted
	// one, so mutations also explore engine.ReadFile.
	dir := f.TempDir()
	engPath := filepath.Join(dir, "run.ckpt")
	if err := cp.Engine.WriteFile(engPath); err != nil {
		f.Fatal(err)
	}
	engFile, err := os.ReadFile(engPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(engFile)
	engFlipped := append([]byte(nil), engFile...)
	engFlipped[len(engFlipped)/2] ^= 0x40
	f.Add(engFlipped)

	prev := filepath.Join(dir, "i1.ckpt.1")
	if err := os.WriteFile(prev, validBin, 0o644); err != nil {
		f.Fatal(err)
	}
	primary := strings.TrimSuffix(prev, ".1")

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpointFile(data)
		if err == nil {
			if !bytes.HasPrefix(data, []byte(codec.InstanceMagic)) {
				t.Fatalf("decoded a checkpoint from input without the %s frame: %q", codec.InstanceMagic, data)
			}
			// Decoded payloads may still be semantically invalid; the
			// validator must reject them with an error, not a panic.
			_ = validateCheckpoint(cp)
		} else if cp != nil {
			t.Fatalf("decode returned both a checkpoint and error %v", err)
		}

		if err := os.WriteFile(primary, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := engine.ReadFile(primary); err == nil && !bytes.HasPrefix(data, []byte(codec.EngineMagic)) {
			t.Fatalf("engine.ReadFile accepted input without the %s frame: %q", codec.EngineMagic, data)
		}
		got, used, err := ReadCheckpointFallback(primary)
		if err != nil {
			t.Fatalf("fallback generation is valid, yet restore failed: %v", err)
		}
		if got == nil {
			t.Fatal("nil checkpoint without error")
		}
		if used != primary && used != prev {
			t.Fatalf("restored from unexpected path %q", used)
		}
	})
}
