//go:build unix

package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestRegistryReloadOfEvictedModel: a model evicted while Reload reads
// its artifact stays evicted. A FIFO at the artifact path holds Reload
// inside the read while the model is evicted; once the artifact arrives,
// Reload returns ErrModelNotFound and installs nothing.
func TestRegistryReloadOfEvictedModel(t *testing.T) {
	pred, _ := testModel(t, 1024, 1)
	var artifact bytes.Buffer
	if _, err := pred.WriteTo(&artifact); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.ghdp")
	if err := os.WriteFile(path, artifact.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(regOptions())
	defer reg.Close()
	if err := reg.LoadFile("m", path); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- reg.Reload("m") }()
	// Opening the write end blocks until Reload has opened the read end.
	w, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Evict("m"); err != nil {
		t.Fatal(err)
	}
	_, err = w.Write(artifact.Bytes())
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("Reload of a model evicted during the read: %v, want ErrModelNotFound", err)
	}
	if n := reg.Len(); n != 0 {
		t.Fatalf("%d models resident after the Reload, want 0", n)
	}
}
