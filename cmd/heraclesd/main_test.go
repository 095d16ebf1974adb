package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"heracles/internal/experiment"
	"heracles/internal/serve"
)

var testLab = experiment.DefaultLab()

// finishedCheckpoint runs a short instance to completion and returns its
// checkpoint.
func finishedCheckpoint(t *testing.T) *serve.InstanceCheckpoint {
	t.Helper()
	srv := serve.New(serve.Config{Lab: testLab})
	defer srv.Close()
	inst, err := srv.CreateInstance(serve.InstanceSpec{Speed: serve.SpeedMax, MaxEpochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); inst.Status().State != serve.StateDone; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("instance did not finish")
		}
	}
	cp, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// dirEntries lists dir's file names, sorted.
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestRestoreCheckpointsFromOrphanedRotation: a crash between the
// checkpoint writer's two renames leaves only i1.ckpt.1. Resume must
// restore that instance, and a checkpoint pass must sweep an orphan
// whose instance no longer exists.
func TestRestoreCheckpointsFromOrphanedRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "i1.ckpt")
	if err := serve.WriteCheckpointFile(path, finishedCheckpoint(t)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Config{Lab: testLab})
	defer srv.Close()
	if n := restoreCheckpoints(srv, dir, serve.SpeedMax, 0); n != 1 {
		t.Fatalf("restored %d instances from a directory holding only i1.ckpt.1, want 1", n)
	}
	insts := srv.Registry().List()
	if len(insts) != 1 {
		t.Fatalf("registry holds %d instances, want 1", len(insts))
	}

	stale, err := os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "i5.ckpt.1"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	startCheckpointer(srv, dir, time.Hour)()
	id := insts[0].ID()
	if got, want := dirEntries(t, dir), []string{id + ".ckpt", id + ".ckpt.1"}; !slices.Equal(got, want) {
		t.Fatalf("after a checkpoint pass the directory holds %q, want %q", got, want)
	}
}

// TestRestoreCheckpointsSetsAsideJSON: JSON is not a checkpoint file
// format, so a JSON InstanceCheckpoint under a checkpoint name is set
// aside as *.failed, not restored.
func TestRestoreCheckpointsSetsAsideJSON(t *testing.T) {
	dir := t.TempDir()
	bare, err := json.Marshal(finishedCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "i1.ckpt"), bare, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := serve.New(serve.Config{Lab: testLab})
	defer srv.Close()
	if n := restoreCheckpoints(srv, dir, serve.SpeedMax, 0); n != 0 {
		t.Fatalf("restored %d instances from a JSON file, want 0", n)
	}
	if got, want := dirEntries(t, dir), []string{"i1.ckpt.failed"}; !slices.Equal(got, want) {
		t.Fatalf("directory holds %q, want %q", got, want)
	}
}
