package rdo

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"rover/internal/rscript"
)

// Sandbox selects the trust level of an execution environment, answering
// the paper's "safe execution" goal for RDOs (cf. its Safe-Tcl citation).
type Sandbox int

const (
	// Trusted grants the full command set plus any host commands. Clients
	// run their own imported RDOs trusted.
	Trusted Sandbox = iota
	// Restricted removes output and introspection commands and enforces a
	// tighter default step budget. Servers run client-shipped RDOs
	// restricted.
	Restricted
)

// Default per-invocation step budgets.
const (
	DefaultTrustedBudget    = 1_000_000
	DefaultRestrictedBudget = 100_000
)

// ErrNoMethod is returned by Invoke for an undefined method.
var ErrNoMethod = errors.New("rdo: no such method")

// ErrBudget wraps rscript.ErrBudget for hosts detecting runaway code.
var ErrBudget = rscript.ErrBudget

// EnvOptions configure an execution environment.
type EnvOptions struct {
	Sandbox Sandbox
	// StepBudget bounds each method invocation; 0 selects the sandbox
	// default.
	StepBudget int64
	// Stdout receives `puts` output in trusted mode; nil discards.
	Stdout io.Writer
	// HostCommands are extra commands exposed to the object's methods
	// (e.g. the server exposes `rover.import` so server-side RDOs can
	// compose other objects).
	HostCommands map[string]rscript.CmdFunc
}

// Env binds an interpreter to a single RDO: the object's procs become
// callable methods, and the object's state dictionary is reachable through
// the `state` command. Env is not safe for concurrent use.
type Env struct {
	obj    *Object
	interp *rscript.Interp
	ops    []StateOp
	budget int64
}

// StateOp records one state mutation made during method execution; the
// access manager uses the presence of ops to know an invocation dirtied
// the object.
type StateOp struct {
	Unset bool
	Key   string
	Value string
}

// NewEnv creates an execution environment for obj. The object's Code is
// loaded immediately (defining its method procs); an error there is an
// error loading the RDO. Code that only defines procs — what applications
// ship — is not run again for every environment: the interpreter binds the
// proc table computed when the process first met that code (rscript's
// class), which every environment over the same code shares read-only.
func NewEnv(obj *Object, opts EnvOptions) (*Env, error) {
	budget := opts.StepBudget
	if budget == 0 {
		if opts.Sandbox == Restricted {
			budget = DefaultRestrictedBudget
		} else {
			budget = DefaultTrustedBudget
		}
	}
	var out io.Writer
	if opts.Sandbox == Trusted {
		out = opts.Stdout
	}
	ip := rscript.New(rscript.Options{
		StepBudget: budget,
		Stdout:     out,
	})
	e := &Env{obj: obj, interp: ip, budget: budget}
	ip.Register("state", e.cmdState)
	if opts.Sandbox == Restricted {
		for _, name := range []string{"puts", "info"} {
			ip.Unregister(name)
		}
	}
	for name, fn := range opts.HostCommands {
		ip.Register(name, fn)
	}
	if obj.Code != "" {
		if _, err := ip.Eval(obj.Code); err != nil {
			return nil, fmt.Errorf("rdo: loading code for %s: %w", obj.URN, err)
		}
	}
	return e, nil
}

// Object returns the bound object.
func (e *Env) Object() *Object { return e.obj }

// Methods returns the names of the object's defined methods.
func (e *Env) Methods() []string { return e.interp.Procs() }

// HasMethod reports whether the object defines the method.
func (e *Env) HasMethod(name string) bool { return e.interp.HasProc(name) }

// Invoke calls a method. Each invocation gets a fresh step budget. State
// mutations made by the method are applied to the object and recorded;
// TakeOps retrieves them.
func (e *Env) Invoke(method string, args ...string) (string, error) {
	if !e.interp.HasProc(method) {
		return "", fmt.Errorf("%w: %q on %s", ErrNoMethod, method, e.obj.URN)
	}
	e.interp.ResetBudget()
	return e.interp.Call(method, args...)
}

// EvalTrusted evaluates arbitrary source in the environment. The access
// manager uses it for application-level scripting against an imported
// object; it is not exposed to shipped code.
func (e *Env) EvalTrusted(src string) (string, error) {
	e.interp.ResetBudget()
	return e.interp.Eval(src)
}

// TakeOps returns the state mutations recorded since the last call and
// clears the record.
func (e *Env) TakeOps() []StateOp {
	ops := e.ops
	e.ops = nil
	return ops
}

// Dirty reports whether unretrieved state mutations exist.
func (e *Env) Dirty() bool { return len(e.ops) > 0 }

// cmdState implements the `state` command:
//
//	state get key ?default?   — read a key (error if absent and no default)
//	state set key value       — write a key
//	state unset key           — remove a key
//	state exists key          — 1/0
//	state keys                — sorted list of keys
//	state size                — number of keys
func (e *Env) cmdState(ip *rscript.Interp, args []string) (string, error) {
	if len(args) < 1 {
		return "", errors.New("state: subcommand required")
	}
	switch args[0] {
	case "get":
		if len(args) < 2 || len(args) > 3 {
			return "", errors.New(`usage: state get key ?default?`)
		}
		if v, ok := e.obj.State[args[1]]; ok {
			return v, nil
		}
		if len(args) == 3 {
			return args[2], nil
		}
		return "", fmt.Errorf("state: no such key %q", args[1])
	case "set":
		if len(args) != 3 {
			return "", errors.New("usage: state set key value")
		}
		e.obj.Set(args[1], args[2])
		e.ops = append(e.ops, StateOp{Key: args[1], Value: args[2]})
		return args[2], nil
	case "unset":
		if len(args) != 2 {
			return "", errors.New("usage: state unset key")
		}
		delete(e.obj.State, args[1])
		e.ops = append(e.ops, StateOp{Unset: true, Key: args[1]})
		return "", nil
	case "exists":
		if len(args) != 2 {
			return "", errors.New("usage: state exists key")
		}
		if _, ok := e.obj.State[args[1]]; ok {
			return "1", nil
		}
		return "0", nil
	case "keys":
		return rscript.FormatList(e.obj.Keys()), nil
	case "size":
		if len(args) != 1 {
			return "", errors.New("usage: state size")
		}
		return strconv.Itoa(len(e.obj.State)), nil
	}
	return "", fmt.Errorf("state: unknown subcommand %q", args[0])
}

// ApplyOps replays recorded state operations onto an object; the server
// uses this when a resolver chooses to merge by state delta.
func ApplyOps(obj *Object, ops []StateOp) {
	for _, op := range ops {
		if op.Unset {
			delete(obj.State, op.Key)
		} else {
			obj.Set(op.Key, op.Value)
		}
	}
}
