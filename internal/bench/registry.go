package bench

import "sort"

// Experiment is a regenerable table/figure.
type Experiment struct {
	ID    string
	Desc  string
	Run   func(Options) (*Table, error)
	Order int
}

var registry = map[string]Experiment{}

func register(order int, id, desc string, run func(Options) (*Table, error)) {
	registry[id] = Experiment{ID: id, Desc: desc, Run: run, Order: order}
}

func init() {
	register(1, "T1", "Rover client API (Table 1)", ExpT1)
	register(2, "T2", "application code sizes", ExpT2)
	register(3, "T3", "null QRPC latency per network vs bare RPC", ExpT3)
	register(4, "T4", "import latency vs object size", ExpT4)
	register(5, "E56", "local RDO invocation vs CSLIP14.4 RPC", ExpE56)
	register(6, "FQUEUE", "non-blocking enqueue and reconnect drain", ExpFQueue)
	register(7, "FLOG", "stable-log flush share of QRPC latency", ExpFLog)
	register(8, "FSCHED", "priority scheduling vs FIFO", ExpFSched)
	register(9, "FMAIL", "mail folder reading strategies", ExpFMail)
	register(10, "FWEB", "click-ahead web browsing", ExpFWeb)
	register(11, "FCAL", "calendar conflict resolution", ExpFCal)
	register(12, "FRDO", "RDO migration: ship vs remote execution", ExpFRDO)
	register(13, "FMIG", "bytes moved: ship vs remote execution", ExpFMig)
	register(14, "ACOMPRESS", "ablation: log compression", ExpACompress)
	register(15, "AGROUP", "ablation: group commit", ExpAGroup)
	register(16, "ABATCH", "ablation: mail-transport batching", ExpABatch)
	register(17, "FIFACE", "extension: roaming across interfaces", ExpFIface)
	register(18, "FMOSAIC", "extension: browsing over queued e-mail", ExpFMosaic)
	register(19, "ABWIRE", "bandwidth layer: compression + delta re-import", ExpABWire)
}

// Lookup returns an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in presentation order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Order < out[j].Order })
	return out
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}
