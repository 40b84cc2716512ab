package bench

import (
	"fmt"
	"strings"
	"time"

	"rover"
	"rover/internal/netsim"
	"rover/internal/sched"
	"rover/internal/store"
	"rover/internal/vtime"
)

// abwireMode is one cell of the bandwidth-ablation grid: wire compression
// on/off × delta re-import on/off.
type abwireMode struct {
	name     string
	compress bool // advertise the compressed-batch capability (link policy still applies)
	delta    bool // keep server-side op history so re-imports can be deltas
}

var abwireModes = []abwireMode{
	{"raw", false, false},
	{"compressed", true, false},
	{"delta", false, true},
	{"delta+compressed", true, true},
}

// abwireRun builds a fresh stack on spec, warms a client's cache with a
// compressible object, mutates the object from a second client (so the
// first cache goes stale without being invalidated — it never subscribed),
// and measures the first client's revalidating re-import: bytes on the
// wire (both directions of its link) and virtual time to completion.
func abwireRun(spec netsim.LinkSpec, mode abwireMode, bodyBytes, muts int) (int64, time.Duration, bool, error) {
	// The link policy decides whether an advertised capability is actually
	// used: on fast links (Ethernet) compression costs CPU for no win, so
	// the scheduler leaves it off. Model the same decision here.
	compressOn := mode.compress && sched.CompressFor(spec.BitsPerSecond)
	stack, err := NewSimStack(SimStackOptions{Link: spec, Seed: 11, Compress: compressOn})
	if err != nil {
		return 0, 0, false, err
	}
	if !mode.delta {
		stack.Server.Store().(*store.Store).SetHistoryLimit(-1)
	}
	u := rover.MustParseURN("urn:rover:bench/abwire")
	obj := rover.NewObject(u, "notes")
	obj.Code = `
		proc add {k v} { state set $k $v }
		proc count {} { state size }
	`
	obj.Set("body", strings.Repeat("the quick brown fox jumps over the lazy dog; ", bodyBytes/45+1))
	if err := stack.Server.Seed(obj); err != nil {
		return 0, 0, false, err
	}
	// The writer rides its own (fast) link; its traffic never touches the
	// measured client's duplex.
	writer, _, err := stack.AddSimClient("abwire-writer", netsim.Ethernet10, 13)
	if err != nil {
		return 0, 0, false, err
	}
	var preAB, preBA int64
	var start, done vtime.Time
	stack.Client.Import(u, rover.ImportOptions{}).OnReady(func(_ *rover.Object, ierr error) {
		mustNil(ierr)
		var mutate func(i int)
		mutate = func(i int) {
			if i == muts {
				st := stack.Link.Duplex().Stats()
				preAB, preBA = st.BytesAB, st.BytesBA
				start = stack.Sched.Now()
				stack.Client.Import(u, rover.ImportOptions{Revalidate: true}).OnReady(func(_ *rover.Object, rerr error) {
					mustNil(rerr)
					done = stack.Sched.Now()
				})
				return
			}
			writer.InvokeRemote(u, "add", []string{fmt.Sprintf("n%03d", i), "updated note text"},
				rover.PriorityNormal).OnReady(func(_ rover.InvokeResult, merr error) {
				mustNil(merr)
				mutate(i + 1)
			})
		}
		mutate(0)
	})
	stack.Run()
	if done == 0 {
		return 0, 0, false, fmt.Errorf("ABWIRE: re-import never completed (%s, %s)", spec.Name, mode.name)
	}
	st := stack.Link.Duplex().Stats()
	bytes := (st.BytesAB - preAB) + (st.BytesBA - preBA)
	deltaHit := stack.Client.Access().Stats().DeltaImports > 0
	if mode.delta && !deltaHit {
		return 0, 0, false, fmt.Errorf("ABWIRE: delta mode fell back to full import (%s, %s)", spec.Name, mode.name)
	}
	return bytes, done.Sub(start), deltaHit, nil
}

// ExpABWire regenerates the bandwidth-layer ablation: bytes on the wire
// and time to revalidate a stale cached RDO across the four standard links
// × {raw, compressed, delta, delta+compressed}.
func ExpABWire(o Options) (*Table, error) {
	bodyBytes := o.scale(8<<10, 2<<10)
	muts := o.scale(12, 4)
	var rows [][]string
	for _, spec := range netsim.StandardLinks() {
		var rawBytes int64
		for _, mode := range abwireModes {
			bytes, elapsed, deltaHit, err := abwireRun(spec, mode, bodyBytes, muts)
			if err != nil {
				return nil, err
			}
			if mode.name == "raw" {
				rawBytes = bytes
			}
			saved := "-"
			if mode.name != "raw" && rawBytes > 0 {
				saved = fmt.Sprintf("-%.0f%%", 100*float64(rawBytes-bytes)/float64(rawBytes))
			}
			kind := "full object"
			if deltaHit {
				kind = "delta"
			}
			rows = append(rows, []string{spec.Name, mode.name, kind, kb(bytes), ms(elapsed), saved})
		}
	}
	return &Table{
		ID:      "ABWIRE",
		Title:   fmt.Sprintf("Bandwidth layer: revalidating re-import of a stale %s RDO after %d remote mutations", kb(int64(bodyBytes)), muts),
		Columns: []string{"network", "mode", "reply", "wire bytes", "time", "vs raw"},
		Rows:    rows,
		Notes: []string{
			"wire bytes count both directions of the measured client's link during the re-import only",
			fmt.Sprintf("compression follows the link policy: links at or above %.0f Mbit/s skip it (ethernet rows show no compression win by design)", float64(sched.CompressThreshold)/1e6),
			"delta replies carry only the operations since the client's committed version, replayed and checksum-verified at the cache",
		},
	}, nil
}
