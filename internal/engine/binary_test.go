package engine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"heracles/internal/engine"
)

// TestBinaryCheckpointRoundTrip is the binary codec's equivalent of
// TestCheckpointRoundTrip: snapshot a fully loaded engine (controllers,
// scheduler, scenario, faults and SLO budget all live), push the
// checkpoint through the binary wire format, restore, and require the
// continuation to be bit-identical to an uninterrupted run. It also
// pins that the binary-decoded checkpoint is value-identical to the
// original by comparing JSON re-encodings — the two codecs must be
// interchangeable views of the same state.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	const epochs = 480
	sc := testScenario(epochs * time.Second)

	ref := engine.New(clusterConfig(1, testJobs(8)))
	ref.InstallScenario(sc)
	want := runStats(ref, epochs)
	ref.Close()

	for _, k := range []int{60, 240, 419} {
		pre := engine.New(clusterConfig(1, testJobs(8)))
		pre.InstallScenario(sc)
		runStats(pre, k)
		cp := pre.Snapshot()
		pre.Close()

		data := cp.EncodeBinary()
		if !bytes.HasPrefix(data, []byte("HRCB")) {
			t.Fatalf("k=%d: encoded checkpoint lacks the binary magic", k)
		}
		if again := cp.EncodeBinary(); !bytes.Equal(data, again) {
			t.Fatalf("k=%d: binary encoding is not deterministic", k)
		}
		decoded, err := engine.DecodeCheckpointBinary(data)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if decoded.Epoch != uint64(k) {
			t.Fatalf("k=%d: checkpoint records epoch %d", k, decoded.Epoch)
		}

		// The binary round trip must preserve the checkpoint value exactly:
		// its JSON form equals the original's byte for byte.
		var orig, rt bytes.Buffer
		if err := cp.Encode(&orig); err != nil {
			t.Fatalf("k=%d: JSON encode original: %v", k, err)
		}
		if err := decoded.Encode(&rt); err != nil {
			t.Fatalf("k=%d: JSON encode round-tripped: %v", k, err)
		}
		if !bytes.Equal(orig.Bytes(), rt.Bytes()) {
			t.Fatalf("k=%d: binary round trip changed the checkpoint value (JSON forms differ)", k)
		}

		res, err := engine.Restore(clusterConfig(1, testJobs(8)), decoded, &sc)
		if err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		got := runStats(res, epochs-k)
		res.Close()
		for i := range got {
			if got[i] != want[k+i] {
				t.Fatalf("k=%d: binary-restored run diverged at epoch %d (%d after restore):\n%+v\nvs\n%+v",
					k, k+i, i, want[k+i], got[i])
			}
		}
	}
}

// TestBinaryCheckpointRejectsMalformed covers the decoder's failure
// surface: every malformation must come back as an error, never a panic.
func TestBinaryCheckpointRejectsMalformed(t *testing.T) {
	e := engine.New(clusterConfig(1, testJobs(4)))
	e.InstallScenario(testScenario(200 * time.Second))
	runStats(e, 20)
	data := e.Snapshot().EncodeBinary()
	e.Close()

	if _, err := engine.DecodeCheckpointBinary([]byte(`{"version":1}`)); err == nil {
		t.Fatal("JSON input accepted as binary")
	}
	if _, err := engine.DecodeCheckpointBinary(nil); err == nil {
		t.Fatal("empty input accepted")
	}

	// Version skew: flip the u16 layout version after the magic.
	skew := append([]byte(nil), data...)
	skew[4], skew[5] = 0xff, 0xff
	if _, err := engine.DecodeCheckpointBinary(skew); err == nil {
		t.Fatal("layout version skew accepted")
	}

	// Truncation at every prefix length must error, not panic. Step by a
	// prime so the loop stays cheap while still hitting unaligned cuts.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := engine.DecodeCheckpointBinary(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(data))
		}
	}

	// Trailing garbage is corruption.
	if _, err := engine.DecodeCheckpointBinary(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// An oversized length claim must be rejected before it sizes an
	// allocation: inflate the machine-count u32 that follows the fixed
	// header fields.
	bomb := append([]byte(nil), data...)
	// Walk to the machine-count u32 the same way the decoder does:
	// 4 magic + 2 version + 7×8 fixed fields, then the scenario section.
	off := 4 + 2 + 7*8
	if bomb[off] == 1 { // scenario present: u32 name len + name + 3×8
		nameLen := int(uint32(bomb[off+1]) | uint32(bomb[off+2])<<8 | uint32(bomb[off+3])<<16 | uint32(bomb[off+4])<<24)
		off += 1 + 4 + nameLen + 3*8
	} else {
		off++
	}
	bomb[off], bomb[off+1], bomb[off+2], bomb[off+3] = 0xff, 0xff, 0xff, 0x7f
	if _, err := engine.DecodeCheckpointBinary(bomb); err == nil {
		t.Fatal("oversized machine count accepted")
	}
}

// TestBinaryEncodeBufferReuse pins the zero-steady-state-allocation
// property of AppendBinary: once the scratch buffer has grown to size,
// re-encoding into it allocates nothing.
func TestBinaryEncodeBufferReuse(t *testing.T) {
	e := engine.New(clusterConfig(1, testJobs(4)))
	e.InstallScenario(testScenario(200 * time.Second))
	runStats(e, 30)
	cp := e.Snapshot()
	e.Close()

	buf := cp.AppendBinary(nil)
	want := append([]byte(nil), buf...)
	if avg := testing.AllocsPerRun(50, func() {
		buf = cp.AppendBinary(buf[:0])
	}); avg != 0 {
		t.Fatalf("AppendBinary into warm buffer allocates %.1f/op, want 0", avg)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("reused-buffer encode produced different bytes")
	}
}

// TestBinaryCheckpointCoversEveryField fills every exported field of a
// Checkpoint — machines, telemetry, controllers, scheduler, faults, SLO
// trackers — with non-zero values and requires the binary round trip to
// preserve its JSON view. The binary codec is hand-written field by
// field, so a field added to any of these states without a codec line
// fails here instead of silently vanishing on restore.
func TestBinaryCheckpointCoversEveryField(t *testing.T) {
	var cp engine.Checkpoint
	n := 0
	fillNonZero(t, reflect.ValueOf(&cp).Elem(), &n)

	decoded, err := engine.DecodeCheckpointBinary(cp.EncodeBinary())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("binary round trip dropped or changed a field:\n got  %s\n want %s", got, want)
	}
}

// fillNonZero sets every exported field reachable from v to a non-zero
// value drawn from the counter n, so two fields swapped by the codec
// also differ: pointers are allocated, slices get two elements, maps
// one entry. Integers stay small, since hardware counts size buffers.
func fillNonZero(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(1 + *n%16))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(1 + *n%16))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i), n)
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillNonZero(t, k, n)
		fillNonZero(t, e, n)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillNonZero: unhandled kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestCheckpointWriteFileReadFile pins the engine checkpoint file: it
// round-trips through WriteFile/ReadFile with the previous generation
// rotated to "<path>.1", and ReadFile refuses a corrupt file and the
// retired indented-JSON file form.
func TestCheckpointWriteFileReadFile(t *testing.T) {
	e := engine.New(clusterConfig(1, testJobs(4)))
	e.InstallScenario(testScenario(200 * time.Second))
	runStats(e, 20)
	first := e.Snapshot()
	runStats(e, 10)
	cp := e.Snapshot()
	e.Close()

	path := filepath.Join(t.TempDir(), "run.ckpt")
	for _, c := range []*engine.Checkpoint{first, cp} {
		if err := c.WriteFile(path); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for p, want := range map[string]*engine.Checkpoint{path: cp, path + ".1": first} {
		got, err := engine.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		var a, b bytes.Buffer
		if err := got.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if err := want.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s: read back a different checkpoint", p)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadFile(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("read of a corrupt file = %v, want a checksum mismatch", err)
	}

	var old bytes.Buffer
	if err := cp.Encode(&old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.ReadFile(path); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Fatalf("read of a JSON checkpoint file = %v, want a refusal naming JSON", err)
	}
}
