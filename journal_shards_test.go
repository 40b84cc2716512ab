package rover

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJournalShardCountNeverShrinks covers the facade's shard-file safety
// rule: a server may reopen its journal with MORE shards (recovery
// reshards) but never fewer — higher-index shard files would go silently
// unread, losing exactly-once state. The journal directory's name is not a
// pattern: glob metacharacters in it must not hide the shard files.
func TestJournalShardCountNeverShrinks(t *testing.T) {
	for _, name := range []string{"plain", "a[1]", "b[", "c*"} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), name)
			if err := os.Mkdir(dir, 0o700); err != nil {
				t.Fatal(err)
			}
			jpath := filepath.Join(dir, "sessions.wal")

			boot := func(shards int) (*Server, error) {
				return NewServer(ServerOptions{
					ServerID:      "shards-test",
					JournalPath:   jpath,
					JournalShards: shards,
				})
			}

			srv, err := boot(4)
			if err != nil {
				t.Fatalf("boot with 4 shards: %v", err)
			}
			srv.Close()

			if srv, err := boot(2); err == nil {
				srv.Close()
				t.Fatal("reopening a 4-shard journal with 2 shards succeeded; want refusal")
			} else if !strings.Contains(err.Error(), "never shrink") {
				t.Fatalf("shrink refusal error = %v", err)
			}

			// Same count and growth both reopen fine.
			for _, n := range []int{4, 8} {
				srv, err := boot(n)
				if err != nil {
					t.Fatalf("reopen with %d shards: %v", n, err)
				}
				if got := len(srv.JournalStats()); got != n {
					srv.Close()
					t.Fatalf("reopened with %d journal shards, want %d", got, n)
				}
				srv.Close()
			}
		})
	}
}
