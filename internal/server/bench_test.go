package server

import (
	"testing"

	"rover/internal/proto"
	"rover/internal/qrpc"
	"rover/internal/rdo"
)

// BenchmarkExportReplay is the "rscript replay at the server" stage of a
// commit on its own: applyExport on an object already in hand, base version
// current — a Restricted environment built over the object's code and one
// shipped `add 1` replayed in it. No store, journal or wire.
func BenchmarkExportReplay(b *testing.B) {
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "bench"})})
	if err != nil {
		b.Fatal(err)
	}
	obj := counter("replay")
	args := &proto.ExportArgs{
		URN:     obj.URN,
		BaseVer: obj.Version,
		Invs:    []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, commit, err := srv.applyExport("bench-cli", obj, obj.Version, args)
		if err != nil || !commit || rep.Outcome != proto.OutcomeCommitted {
			b.Fatalf("applyExport: %+v, commit=%v, err=%v", rep, commit, err)
		}
	}
}

// TestExportReplayAllocs pins BenchmarkExportReplay's stage: the Env, with
// its interpreter inside it; the operation it records; the new count as a
// string; and the reply.
func TestExportReplayAllocs(t *testing.T) {
	srv, err := New(Config{Engine: qrpc.NewServer(qrpc.ServerConfig{ServerID: "allocs"})})
	if err != nil {
		t.Fatal(err)
	}
	obj := counter("replay")
	obj.Set("count", "100")
	args := &proto.ExportArgs{
		URN:     obj.URN,
		BaseVer: obj.Version,
		Invs:    []rdo.Invocation{{Object: obj.URN, Method: "add", Args: []string{"1"}}},
	}
	n := testing.AllocsPerRun(100, func() {
		if _, commit, err := srv.applyExport("allocs-cli", obj, obj.Version, args); err != nil || !commit {
			t.Fatalf("applyExport: commit=%v, err=%v", commit, err)
		}
	})
	if n > 4 {
		t.Errorf("replaying one shipped operation allocates %v objects, want at most 4", n)
	}
}
