// Package rscript implements the interpreted language in which Rover RDO
// code ships between clients and servers.
//
// The paper implements relocatable dynamic objects in interpreted Tcl,
// choosing "code interpretation with limited environments (e.g. Safe-Tcl)"
// as its answer to the three conflicting goals of RDO implementation:
// safe execution, portability, and efficiency. Go cannot load native code
// dynamically in a portable, safe way, so this reproduction does exactly
// what the paper did: RDO methods are source text in a small Tcl-like
// language, evaluated by this interpreter inside a sandbox whose command
// table and resource budgets the host controls.
//
// The language is a pragmatic subset of Tcl: everything is a string;
// command and variable substitution work as in Tcl; control flow (if,
// while, for, foreach, switch), procedures with defaults and varargs,
// error handling (error/catch), list and string commands, and an expr
// evaluator with integer, float, and string comparison semantics.
//
// Safety comes from three mechanisms, mirroring the Safe-Tcl discussion in
// the paper: a restricted command table (hosts choose which commands an
// untrusted RDO may call), a step budget bounding total execution, and a
// recursion depth limit.
package rscript

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// Error is an rscript runtime error.
type Error struct {
	Msg   string
	cause error // ErrBudget or ErrDepth
}

func (e *Error) Error() string { return "rscript: " + e.Msg }

// Unwrap returns ErrBudget or ErrDepth when the interpreter stopped the
// script for that reason, nil otherwise: what a host command returned is
// reported in Msg only.
func (e *Error) Unwrap() error { return e.cause }

// ErrBudget is returned (wrapped in *Error) when a script exhausts its
// step budget. Hosts detect runaway RDOs by errors.Is against this.
var ErrBudget = errors.New("step budget exhausted")

// ErrDepth is returned when recursion exceeds the depth limit.
var ErrDepth = errors.New("recursion depth exceeded")

// Options configure an interpreter.
type Options struct {
	// StepBudget bounds the number of commands the interpreter will
	// execute across its lifetime; 0 means unlimited. Each Eval call
	// charges against the same budget, so an RDO cannot evade the bound by
	// making many small calls.
	StepBudget int64
	// MaxDepth bounds proc-call/eval nesting; 0 means a default of 200.
	MaxDepth int
	// Stdout receives `puts` output; nil discards it.
	Stdout io.Writer
}

// CmdFunc is a host command callable from scripts.
type CmdFunc func(ip *Interp, args []string) (string, error)

// builtinFunc is a builtin command; control commands need flow access.
type builtinFunc func(ip *Interp, args []string) (string, *flow)

// flow carries non-local control: return, break, continue, error.
type flowKind int

const (
	flowReturn flowKind = iota + 1
	flowBreak
	flowContinue
	flowError
)

type flow struct {
	kind flowKind
	val  string // return value or error message
	err  error  // optional underlying error (ErrBudget etc.)
}

func errorFlow(format string, args ...any) *flow {
	return &flow{kind: flowError, val: fmt.Sprintf(format, args...)}
}

// Proc is a script-defined procedure. A Proc is immutable once defined:
// the procs of a class are called by every interpreter bound to it at once.
type Proc struct {
	Name    string
	Params  []param
	body    *Script // shared parse of the body
	bodyErr error   // why the body does not parse; reported by every call
}

type param struct {
	name     string
	def      string
	hasDef   bool
	variadic bool // the trailing "args" parameter
}

// frame is one level of local variables.
type frame struct {
	vars  map[string]string // made by the first set
	links map[string]*frame // variables linked to another frame (global/upvar)
	big   bool              // held more than frameReuseVars variables at some point
}

// set writes a variable of this frame, not following links.
func (fr *frame) set(name, value string) {
	if fr.vars == nil {
		fr.vars = make(map[string]string)
	}
	fr.vars[name] = value
	if len(fr.vars) > frameReuseVars {
		fr.big = true
	}
}

const (
	// inlineDepth is how deep calls nest before the frame stack leaves the
	// array inside Interp for the heap.
	inlineDepth = 8
	// maxFreeFrames bounds the frames an interpreter keeps for its next calls.
	maxFreeFrames = 8
	// frameReuseVars is the most variables a frame may ever have held and
	// still be reused: clearing a map costs its capacity, not its length, so
	// a reused frame that once grew huge would tax every later call with
	// work the step budget does not see.
	frameReuseVars = 32
)

// Interp is an rscript interpreter. An Interp is not safe for concurrent
// use; RDO execution environments serialize access per object.
//
// The builtin command table is one package-level map shared by every
// interpreter and never written after init. An Interp's own command state
// is what its host changed: the commands it Registered, which shadow
// builtins of the same name, and the builtins it Unregistered.
//
// Procs are looked up in own, then in class. class is the shared, immutable
// table of the code the interpreter loaded (see class); own holds what a
// `proc` command defined at run time, so a redefinition shadows the class's
// proc in this interpreter and is invisible to every other one.
type Interp struct {
	opts   Options
	global frame
	stack  []*frame              // stack[0] == &global
	stack0 [inlineDepth]*frame   // what stack is a slice of until calls nest deeper
	free   [maxFreeFrames]*frame // free[:nfree]: emptied frames of returned calls
	nfree  int
	host   map[string]CmdFunc // Register'ed commands
	hidden uint64             // builtin.bit of every builtin removed by Unregister
	class  *class             // procs of the loaded code, shared
	own    map[string]*Proc   // procs a `proc` command defined here; made by the first
	steps  int64
	depth  int
}

const defaultMaxDepth = 200

// New returns an interpreter with the full builtin command set.
func New(opts Options) *Interp {
	ip := &Interp{opts: opts}
	ip.stack0[0] = &ip.global
	ip.stack = ip.stack0[:1]
	return ip
}

// Register installs (or replaces) a host command.
func (ip *Interp) Register(name string, fn CmdFunc) {
	if ip.host == nil {
		ip.host = make(map[string]CmdFunc)
	}
	ip.host[name] = fn
}

// Unregister removes a command from the table. Removing builtins is how
// hosts build restricted sandboxes.
func (ip *Interp) Unregister(name string) {
	delete(ip.host, name)
	ip.hidden |= builtins[name].bit
}

// Commands returns the sorted-later names of all registered commands
// (including builtins); used by `info commands` and sandbox auditing.
func (ip *Interp) Commands() []string {
	names := make([]string, 0, len(builtins)+len(ip.host)+ip.numProcs())
	for n, b := range builtins {
		_, shadowed := ip.host[n]
		if ip.hidden&b.bit == 0 && !shadowed {
			names = append(names, n)
		}
	}
	for n := range ip.host {
		names = append(names, n)
	}
	return ip.appendProcs(names)
}

// StepsUsed reports how many commands have executed.
func (ip *Interp) StepsUsed() int64 { return ip.steps }

// ResetBudget restores the full step budget (hosts call this between
// method invocations when the budget is per-invocation).
func (ip *Interp) ResetBudget() { ip.steps = 0 }

// SetVar sets a global variable.
func (ip *Interp) SetVar(name, value string) { ip.global.set(name, value) }

// GetVar reads a global variable.
func (ip *Interp) GetVar(name string) (string, bool) {
	v, ok := ip.global.vars[name]
	return v, ok
}

// UnsetVar removes a global variable.
func (ip *Interp) UnsetVar(name string) { delete(ip.global.vars, name) }

// GlobalVars returns a copy of the global variable table; the RDO layer
// uses this to capture object state after method execution.
func (ip *Interp) GlobalVars() map[string]string {
	out := make(map[string]string, len(ip.global.vars))
	for k, v := range ip.global.vars {
		out[k] = v
	}
	return out
}

// Eval parses (through the process-wide cache) and evaluates src,
// returning the value of the last command. Code that only defines procs is
// not run when its class can be bound instead (see bindClass).
func (ip *Interp) Eval(src string) (string, error) {
	s, err := parseCached(src)
	if err != nil {
		return "", err
	}
	if ip.bindClass(s.loadClass()) {
		return "", nil
	}
	v, f := ip.evalScript(s)
	return finish(v, f)
}

// Call invokes a script-defined procedure by name.
func (ip *Interp) Call(name string, args ...string) (string, error) {
	proc, ok := ip.lookupProc(name)
	if !ok {
		return "", &Error{Msg: fmt.Sprintf("invalid command name %q", name)}
	}
	v, f := ip.callProc(proc, args)
	return finish(v, f)
}

// HasProc reports whether a procedure is defined.
func (ip *Interp) HasProc(name string) bool {
	_, ok := ip.lookupProc(name)
	return ok
}

// Procs returns the names of all defined procedures.
func (ip *Interp) Procs() []string {
	return ip.appendProcs(make([]string, 0, ip.numProcs()))
}

// lookupProc resolves a procedure: this interpreter's own definitions
// shadow its class's.
func (ip *Interp) lookupProc(name string) (*Proc, bool) {
	if proc, ok := ip.own[name]; ok {
		return proc, true
	}
	if ip.class == nil {
		return nil, false
	}
	proc, ok := ip.class.procs[name]
	return proc, ok
}

// numProcs is an upper bound on the number of defined procedures.
func (ip *Interp) numProcs() int {
	n := len(ip.own)
	if ip.class != nil {
		n += len(ip.class.procs)
	}
	return n
}

// appendProcs appends the name of every defined procedure, each once.
func (ip *Interp) appendProcs(names []string) []string {
	for n := range ip.own {
		names = append(names, n)
	}
	if ip.class != nil {
		for n := range ip.class.procs {
			if _, shadowed := ip.own[n]; !shadowed {
				names = append(names, n)
			}
		}
	}
	return names
}

func finish(v string, f *flow) (string, error) {
	if f == nil {
		return v, nil
	}
	switch f.kind {
	case flowReturn:
		return f.val, nil
	case flowError:
		if f.err == ErrBudget || f.err == ErrDepth {
			return "", &Error{Msg: f.val + ": " + f.err.Error(), cause: f.err}
		}
		if f.err != nil {
			return "", &Error{Msg: f.val + ": " + f.err.Error()}
		}
		return "", &Error{Msg: f.val}
	case flowBreak:
		return "", &Error{Msg: `invoked "break" outside of a loop`}
	case flowContinue:
		return "", &Error{Msg: `invoked "continue" outside of a loop`}
	}
	return v, nil
}

// current returns the active frame.
func (ip *Interp) current() *frame { return ip.stack[len(ip.stack)-1] }

// lookupVar resolves a variable in the active frame, following links.
func (ip *Interp) lookupVar(name string) (string, bool) {
	fr := ip.current()
	if fr.links != nil {
		if target, ok := fr.links[name]; ok {
			v, ok := target.vars[name]
			return v, ok
		}
	}
	v, ok := fr.vars[name]
	return v, ok
}

// setVarLocal writes a variable in the active frame, following links.
func (ip *Interp) setVarLocal(name, value string) {
	fr := ip.current()
	if fr.links != nil {
		if target, ok := fr.links[name]; ok {
			target.set(name, value)
			return
		}
	}
	fr.set(name, value)
}

// unsetVarLocal removes a variable, following links. Reports whether it
// existed.
func (ip *Interp) unsetVarLocal(name string) bool {
	fr := ip.current()
	if fr.links != nil {
		if target, ok := fr.links[name]; ok {
			_, existed := target.vars[name]
			delete(target.vars, name)
			return existed
		}
	}
	_, existed := fr.vars[name]
	delete(fr.vars, name)
	return existed
}

// evalScript runs every command; value is the last command's result.
func (ip *Interp) evalScript(s *Script) (string, *flow) {
	var val string
	for _, cmd := range s.Cmds {
		v, f := ip.evalCommand(cmd)
		if f != nil {
			return "", f
		}
		val = v
	}
	return val, nil
}

// step charges one unit of the step budget.
func (ip *Interp) step() *flow {
	if ip.opts.StepBudget > 0 {
		ip.steps++
		if ip.steps > ip.opts.StepBudget {
			return &flow{kind: flowError, val: "step budget exhausted", err: ErrBudget}
		}
	}
	return nil
}

// stepIfIdle charges a step for a while/for iteration during which no
// command ran (since is StepsUsed from before it). Such an iteration
// changed nothing, so the loop can never end; without the charge
// `while {1} {}` would spin outside the budget forever. An iteration that
// ran anything has been charged for it already and pays nothing more.
func (ip *Interp) stepIfIdle(since int64) *flow {
	if ip.steps == since {
		return ip.step()
	}
	return nil
}

// evalCommand expands the command's words and dispatches it.
func (ip *Interp) evalCommand(cmd *Cmd) (string, *flow) {
	if f := ip.step(); f != nil {
		return "", f
	}
	words := make([]string, len(cmd.Words))
	for i, w := range cmd.Words {
		v, f := ip.expandWord(w)
		if f != nil {
			return "", f
		}
		words[i] = v
	}
	return ip.dispatch(words, cmd.Line)
}

func (ip *Interp) dispatch(words []string, line int) (string, *flow) {
	name := words[0]
	if proc, ok := ip.lookupProc(name); ok {
		return ip.callProc(proc, words[1:])
	}
	_ = line // parse errors carry line numbers; runtime errors stay clean
	if fn, ok := ip.host[name]; ok {
		v, err := fn(ip, words[1:])
		if err != nil {
			return "", &flow{kind: flowError, val: err.Error(), err: err}
		}
		return v, nil
	}
	if b, ok := builtins[name]; ok && ip.hidden&b.bit == 0 {
		return b.fn(ip, words[1:])
	}
	return "", errorFlow("invalid command name %q", name)
}

// expandWord concatenates a word's parts after substitution.
func (ip *Interp) expandWord(w *Word) (string, *flow) {
	if lit, ok := w.literal(); ok {
		return lit, nil
	}
	var sb strings.Builder
	for _, part := range w.Parts {
		switch p := part.(type) {
		case LitPart:
			sb.WriteString(string(p))
		case VarPart:
			v, ok := ip.lookupVar(string(p))
			if !ok {
				return "", errorFlow("can't read %q: no such variable", string(p))
			}
			sb.WriteString(v)
		case CmdPart:
			v, f := ip.evalScript(p.Script)
			if f != nil {
				if f.kind == flowReturn {
					// return inside [] behaves like its value (Tcl nuance
					// simplified: treat as value).
					sb.WriteString(f.val)
					continue
				}
				return "", f
			}
			sb.WriteString(v)
		}
	}
	return sb.String(), nil
}

// callProc invokes a script procedure with the given argument values.
func (ip *Interp) callProc(proc *Proc, args []string) (string, *flow) {
	maxDepth := ip.opts.MaxDepth
	if maxDepth == 0 {
		maxDepth = defaultMaxDepth
	}
	if ip.depth >= maxDepth {
		return "", &flow{kind: flowError, val: "recursion depth exceeded", err: ErrDepth}
	}
	fr := ip.newFrame()
	if err := bindParams(fr, proc, args); err != nil {
		ip.freeFrame(fr)
		return "", &flow{kind: flowError, val: err.Error()}
	}
	if proc.bodyErr != nil {
		ip.freeFrame(fr)
		return "", errorFlow("in proc %q: %v", proc.Name, proc.bodyErr)
	}
	ip.stack = append(ip.stack, fr)
	ip.depth++
	v, f := ip.evalScript(proc.body)
	ip.depth--
	ip.stack[len(ip.stack)-1] = nil
	ip.stack = ip.stack[:len(ip.stack)-1]
	ip.freeFrame(fr)
	if f != nil {
		switch f.kind {
		case flowReturn:
			return f.val, nil
		case flowBreak:
			return "", errorFlow(`invoked "break" outside of a loop`)
		case flowContinue:
			return "", errorFlow(`invoked "continue" outside of a loop`)
		default:
			return "", f
		}
	}
	return v, nil
}

// newFrame returns an empty frame for a call, a kept one if there is one.
func (ip *Interp) newFrame() *frame {
	if ip.nfree == 0 {
		return &frame{}
	}
	ip.nfree--
	fr := ip.free[ip.nfree]
	ip.free[ip.nfree] = nil
	return fr
}

// freeFrame empties the frame of a call that has returned and keeps it for
// a later call. Nothing can still refer to it: a frame is only ever pointed
// at by the stack, which has popped it, and by the global/upvar links of
// frames above it, which returned before it did — links point down the
// stack, never up.
func (ip *Interp) freeFrame(fr *frame) {
	if fr.big || ip.nfree == len(ip.free) {
		return
	}
	clear(fr.vars)
	fr.links = nil
	ip.free[ip.nfree] = fr
	ip.nfree++
}

func bindParams(fr *frame, proc *Proc, args []string) error {
	i := 0
	for pi, p := range proc.Params {
		if p.variadic {
			fr.set(p.name, FormatList(args[i:]))
			i = len(args)
			// variadic must be last by construction
			_ = pi
			break
		}
		if i < len(args) {
			fr.set(p.name, args[i])
			i++
		} else if p.hasDef {
			fr.set(p.name, p.def)
		} else {
			return fmt.Errorf("wrong # args: should be %q", procUsage(proc))
		}
	}
	if i < len(args) {
		return fmt.Errorf("wrong # args: should be %q", procUsage(proc))
	}
	return nil
}

func procUsage(proc *Proc) string {
	parts := []string{proc.Name}
	for _, p := range proc.Params {
		switch {
		case p.variadic:
			parts = append(parts, "?arg ...?")
		case p.hasDef:
			parts = append(parts, "?"+p.name+"?")
		default:
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, " ")
}
