package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// migrationSpec is a state-rich run: a flash crowd on top of flat load,
// a BE task arriving and departing, and an SLO tightening — so the
// engine state a migration must carry is far from trivial.
func migrationSpec(speed float64) InstanceSpec {
	return InstanceSpec{
		Load:      0.3,
		Speed:     speed,
		MaxEpochs: 130,
		Scenario: &ScenarioSpec{
			Name:      "migration-mix",
			DurationS: 120,
			Load: &ShapeSpec{
				Kind: "sum",
				Terms: []ShapeSpec{
					{Kind: "flat", Value: 0.3},
					{Kind: "flashcrowd", StartS: 60, RiseS: 10, HoldS: 10, FallS: 10, Amp: 0.4},
				},
				Clamp: &ClampSpec{Lo: 0, Hi: 0.85},
			},
			Events: []EventSpec{
				{AtS: 30, Kind: "be-arrive", Workload: "brain"},
				{AtS: 60, Kind: "slo-scale", Factor: 0.8},
				{AtS: 90, Kind: "be-depart", Workload: "brain"},
			},
		},
	}
}

// migrationPace runs an epoch every ~2ms of wall time: slow enough that
// the test migrates the instance mid-run, fast enough that 130 epochs
// finish in well under a second.
const migrationPace = 500

// finalEngineJSON waits for the instance to finish and returns its full
// engine checkpoint — telemetry rings, controller state, scenario
// cursor, BE scheduler accounting — as canonical JSON. Byte equality of
// this blob is the bit-identity pin.
func finalEngineJSON(t *testing.T, inst *Instance) []byte {
	t.Helper()
	awaitInstance(t, inst, "run complete", func() bool {
		return inst.Status().State == StateDone
	})
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	b, err := json.Marshal(cp.Engine)
	if err != nil {
		t.Fatalf("marshal engine state: %v", err)
	}
	return b
}

// referenceEngineJSON free-runs the migration spec to completion on an
// untouched single-shard server.
func referenceEngineJSON(t *testing.T) []byte {
	t.Helper()
	ref := New(Config{Lab: testLab})
	t.Cleanup(ref.Close)
	inst, err := ref.CreateInstance(migrationSpec(SpeedMax))
	if err != nil {
		t.Fatalf("reference create: %v", err)
	}
	return finalEngineJSON(t, inst)
}

// TestMigrateCrossShardBitIdentical migrates a paced instance across
// shards twice mid-run and pins its final engine state — telemetry and
// scheduler accounting included — bit-identical to a run that never
// moved. The engine is deterministic and wall-clock-free, so a correct
// checkpoint/restore migration must not perturb a single byte.
func TestMigrateCrossShardBitIdentical(t *testing.T) {
	want := referenceEngineJSON(t)

	s := New(Config{Lab: testLab, Shards: 4})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(migrationSpec(migrationPace))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cur := inst
	for hop, minEpoch := range []uint64{30, 80} {
		awaitInstance(t, cur, "mid-run epoch reached", func() bool {
			return cur.Status().Epoch >= minEpoch
		})
		from, ok := s.Registry().HomeShard(cur.ID())
		if !ok {
			t.Fatalf("hop %d: instance %s has no home shard", hop, cur.ID())
		}
		target := (from + 1) % s.Registry().ShardCount()
		res, err := s.MigrateToShard(cur.ID(), target)
		if err != nil {
			t.Fatalf("hop %d: migrate: %v", hop, err)
		}
		if res.FromShard != from || res.ToShard != target {
			t.Fatalf("hop %d: migrated %d -> %d, want %d -> %d", hop, res.FromShard, res.ToShard, from, target)
		}
		next, ok := s.Registry().Get(res.To)
		if !ok {
			t.Fatalf("hop %d: restored instance %s not in registry", hop, res.To)
		}
		if got := next.Status().Shard; got != target {
			t.Fatalf("hop %d: restored instance reports shard %d, want %d", hop, got, target)
		}
		if home, _ := s.Registry().HomeShard(res.To); home != target {
			t.Fatalf("hop %d: registry homes restored instance on %d, want %d", hop, home, target)
		}
		if _, ok := s.Registry().Get(res.From); ok {
			t.Fatalf("hop %d: origin instance %s still registered", hop, res.From)
		}
		cur = next
	}
	if got := s.Registry().Migrations(); got != 2 {
		t.Fatalf("migration counter = %d, want 2", got)
	}
	got := finalEngineJSON(t, cur)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-shard migration diverged from the unmigrated run:\n got  %d bytes %s\n want %d bytes %s",
			len(got), trimJSON(got), len(want), trimJSON(want))
	}
}

// TestMigrateCrossDaemonBitIdentical migrates a paced instance from one
// in-process daemon to a second over HTTP mid-run, then back again, and
// pins the final engine state bit-identical to a run that never moved.
func TestMigrateCrossDaemonBitIdentical(t *testing.T) {
	want := referenceEngineJSON(t)

	s1 := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s1.Close)
	s2 := New(Config{Lab: testLab, Shards: 2})
	t.Cleanup(s2.Close)
	rec1 := &createRecorder{Handler: s1.Handler()}
	ts1 := httptest.NewServer(rec1)
	t.Cleanup(ts1.Close)
	rec2 := &createRecorder{Handler: s2.Handler()}
	ts2 := httptest.NewServer(rec2)
	t.Cleanup(ts2.Close)

	inst, err := s1.CreateInstance(migrationSpec(migrationPace))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	awaitInstance(t, inst, "mid-run epoch reached", func() bool {
		return inst.Status().Epoch >= 30
	})
	res, err := s1.MigrateToPeer(inst.ID(), ts2.URL)
	if err != nil {
		t.Fatalf("migrate to peer: %v", err)
	}
	if res.Peer != ts2.URL {
		t.Fatalf("result peer = %q, want %q", res.Peer, ts2.URL)
	}
	if _, ok := s1.Registry().Get(res.From); ok {
		t.Fatalf("origin instance %s still registered on the source daemon", res.From)
	}
	hosted, ok := s2.Registry().Get(res.To)
	if !ok {
		t.Fatalf("restored instance %s not on the peer daemon", res.To)
	}

	// And back: the second hop starts from the restored copy's state, so
	// surviving it proves the shipped checkpoint was complete.
	awaitInstance(t, hosted, "mid-run epoch reached on peer", func() bool {
		return hosted.Status().Epoch >= 80
	})
	res, err = s2.MigrateToPeer(hosted.ID(), ts1.URL)
	if err != nil {
		t.Fatalf("migrate back: %v", err)
	}
	home, ok := s1.Registry().Get(res.To)
	if !ok {
		t.Fatalf("twice-migrated instance %s not back on the first daemon", res.To)
	}
	if s1.Registry().Migrations() != 1 || s2.Registry().Migrations() != 1 {
		t.Fatalf("migration counters = %d/%d, want 1/1",
			s1.Registry().Migrations(), s2.Registry().Migrations())
	}
	// Both hops shipped the checkpoint file, not JSON.
	for i, rec := range []*createRecorder{rec1, rec2} {
		if got := rec.seen(); len(got) != 1 || got[0] != CheckpointMediaType {
			t.Fatalf("daemon %d create requests carried %q, want one %q", i+1, got, CheckpointMediaType)
		}
	}
	got := finalEngineJSON(t, home)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-daemon migration diverged from the unmigrated run:\n got  %d bytes %s\n want %d bytes %s",
			len(got), trimJSON(got), len(want), trimJSON(want))
	}
}

// createRecorder wraps a daemon's handler, recording the Content-Type
// of every create request it serves.
type createRecorder struct {
	http.Handler
	mu    sync.Mutex
	types []string
}

func (c *createRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/api/v1/instances" {
		c.mu.Lock()
		c.types = append(c.types, r.Header.Get("Content-Type"))
		c.mu.Unlock()
	}
	c.Handler.ServeHTTP(w, r)
}

func (c *createRecorder) seen() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.types...)
}

// TestCreateCheckpointBody drives the create route's two restore
// encodings. A checkpoint file sent as CheckpointMediaType restores; a
// corrupt, truncated or oversized one is refused with 400/400/413 and
// the server keeps serving. A JSON restore keeps working, also under
// the form content type curl -d sends.
func TestCreateCheckpointBody(t *testing.T) {
	s := New(Config{Lab: testLab})
	t.Cleanup(s.Close)
	inst, err := s.CreateInstance(InstanceSpec{Speed: SpeedMax, MaxEpochs: 3})
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
	valid := encodeCkpt(t, cp)
	restoreJSON, err := json.Marshal(InstanceSpec{Restore: cp})
	if err != nil {
		t.Fatal(err)
	}

	post := func(body io.Reader, ctype string) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/instances", body)
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	oversized := io.MultiReader(bytes.NewReader(valid), io.LimitReader(zeros{}, restoreBodyLimit))
	for _, c := range []struct {
		name  string
		body  io.Reader
		ctype string
		want  int
	}{
		{"checkpoint file", bytes.NewReader(valid), CheckpointMediaType, http.StatusCreated},
		{"checkpoint file with parameters", bytes.NewReader(valid), CheckpointMediaType + "; v=1", http.StatusCreated},
		{"CRC-flipped checkpoint file", bytes.NewReader(flipped), CheckpointMediaType, http.StatusBadRequest},
		{"truncated checkpoint file", bytes.NewReader(valid[:len(valid)/2]), CheckpointMediaType, http.StatusBadRequest},
		{"JSON under the checkpoint media type", bytes.NewReader(restoreJSON), CheckpointMediaType, http.StatusBadRequest},
		{"over-limit checkpoint file", oversized, CheckpointMediaType, http.StatusRequestEntityTooLarge},
		{"JSON restore", bytes.NewReader(restoreJSON), "application/json", http.StatusCreated},
		{"JSON restore sent as a form", bytes.NewReader(restoreJSON), "application/x-www-form-urlencoded", http.StatusCreated},
	} {
		if code, body := post(c.body, c.ctype); code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, strings.TrimSpace(body), c.want)
		}
	}
	if got := s.Registry().Len(); got != 1+4 {
		t.Fatalf("registry holds %d instances, want the original plus 4 restores", got)
	}
}

// zeros is an endless reader of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// trimJSON keeps failure output readable: engine checkpoints run to
// hundreds of KB.
func trimJSON(b []byte) string {
	const max = 512
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "..."
}
