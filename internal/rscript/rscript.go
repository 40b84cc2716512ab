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
	"maps"
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

// CmdFunc is a host command callable from scripts. args is valid only for
// the duration of the call: the interpreter reuses its storage, so a
// command that keeps the slice itself must copy it (the strings in it it
// may keep).
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

// break and continue carry nothing, so every one is the same flow.
var (
	breakFlow    = &flow{kind: flowBreak}
	continueFlow = &flow{kind: flowContinue}
)

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

// variable is one of a frame's own variables.
type variable struct{ name, value string }

// frame is one level of local variables. The first frameSlots live in the
// frame itself and are found by comparing names; more go to a map made
// when they first overflow. Links (global/upvar) are kept apart from the
// frame's own variables, as the language defines them: a linked name
// reads and writes the target frame's own variable of that name.
type frame struct {
	vars  [frameSlots]variable
	more  map[string]string // variables past frameSlots
	links map[string]*frame // made by the first global/upvar
	n     int32             // vars[:n] are in use
	big   bool              // more held over frameReuseVars entries at some point
}

// find returns where name is among the frame's in-place variables, -1 if
// it is not there.
func (fr *frame) find(name string) int {
	for i := range int(fr.n) {
		if fr.vars[i].name == name {
			return i
		}
	}
	return -1
}

func (fr *frame) get(name string) (string, bool) {
	if i := fr.find(name); i >= 0 {
		return fr.vars[i].value, true
	}
	v, ok := fr.more[name]
	return v, ok
}

// set writes a variable of this frame, not following links.
func (fr *frame) set(name, value string) {
	if i := fr.find(name); i >= 0 {
		fr.vars[i].value = value
		return
	}
	if _, ok := fr.more[name]; !ok && int(fr.n) < len(fr.vars) {
		fr.vars[fr.n] = variable{name, value}
		fr.n++
		return
	}
	if fr.more == nil {
		fr.more = make(map[string]string)
	}
	fr.more[name] = value
	if len(fr.more) > frameReuseVars {
		fr.big = true
	}
}

// unset removes a variable of this frame and reports whether it existed.
func (fr *frame) unset(name string) bool {
	if i := fr.find(name); i >= 0 {
		fr.n--
		fr.vars[i] = fr.vars[fr.n]
		fr.vars[fr.n] = variable{}
		return true
	}
	_, ok := fr.more[name]
	delete(fr.more, name)
	return ok
}

// reset empties the frame for another call.
func (fr *frame) reset() {
	clear(fr.vars[:fr.n])
	fr.n = 0
	if fr.big {
		fr.more, fr.big = nil, false
	} else {
		clear(fr.more)
	}
	fr.links = nil
}

const (
	// frameSlots is how many variables a frame holds before it needs a map:
	// every proc the shipped applications define fits.
	frameSlots = 6
	// inlineDepth is how deep calls nest before the frame stack leaves the
	// array inside Interp for the heap.
	inlineDepth = 6
	// maxFreeFrames bounds the frames an interpreter keeps for its next calls.
	maxFreeFrames = 8
	// frameReuseVars is the most variables a frame's map may ever have held
	// and still be kept: clearing a map costs its capacity, not its length,
	// so a reused map that once grew huge would tax every later call with
	// work the step budget does not see.
	frameReuseVars = 32
	// inlineArgs is how many words the argument stack holds before it
	// leaves the array inside Interp for the heap.
	inlineArgs = 12
)

// Interp is an rscript interpreter. An Interp is not safe for concurrent
// use; RDO execution environments serialize access per object. An Interp
// may be embedded by value (see Init) but not copied once initialized.
//
// The builtin command table is one package-level map shared by every
// interpreter and never written after init. An Interp's own command state
// is what its host changed: a stack of host command tables, which shadow
// builtins of the same name, and the builtins it Unregistered. A table
// comes from Share, read-only and perhaps shared with other interpreters,
// or from Register and Unregister, which write only a table of the
// interpreter's own on top of the stack and start one when the top is
// shared. shadowed has the bit of every builtin that a command naming it
// would not reach — hidden, or taken by a host command or a proc — so a
// command whose builtin the compiler resolved runs it after one mask test.
//
// Procs are looked up in own, then in class. class is the shared, immutable
// table of the code the interpreter loaded (see class); own holds what a
// `proc` command defined at run time, so a redefinition shadows the class's
// proc in this interpreter and is invisible to every other one.
type Interp struct {
	opts     Options
	global   frame
	frame1   frame                 // the first call's frame, kept in free until taken
	stack    []*frame              // stack[0] == &global
	stack0   [inlineDepth]*frame   // what stack is a slice of until calls nest deeper
	free     [maxFreeFrames]*frame // free[:nfree]: emptied frames of returned calls
	nfree    int
	args     []string              // words of the commands being run, innermost last
	args0    [inlineArgs]string    // what args is a slice of until it outgrows it
	host     []map[string]CmdFunc  // host command tables, newest last; see hostCmd
	host0    [2]map[string]CmdFunc // what host is a slice of
	ownTop   bool                  // host's last table is this interpreter's own
	hidden   uint64                // builtin.bit of every builtin removed by Unregister
	shadowed uint64                // builtin.bit of every builtin a command would not reach
	class    *class                // procs of the loaded code, shared
	own      map[string]*Proc      // procs a `proc` command defined here; made by the first
	ret      flow                  // the one return flow in flight, see cmdReturn
	data     any                   // SetClientData
	steps    int64
	depth    int
}

const defaultMaxDepth = 200

// New returns an interpreter with the full builtin command set.
func New(opts Options) *Interp {
	ip := new(Interp)
	ip.Init(opts)
	return ip
}

// Init makes ip a new interpreter, as New(opts) returns, in place: a host
// that keeps one interpreter per object can hold it by value.
func (ip *Interp) Init(opts Options) {
	*ip = Interp{opts: opts}
	ip.stack0[0] = &ip.global
	ip.stack = ip.stack0[:1]
	ip.free[0] = &ip.frame1
	ip.nfree = 1
	ip.args = ip.args0[:0]
	ip.host = ip.host0[:0]
}

// builtinBit returns the bit of the builtin named name, 0 if there is none.
func builtinBit(name string) uint64 {
	if b := builtins[name]; b != nil {
		return b.bit
	}
	return 0
}

// Register installs (or replaces) a host command.
func (ip *Interp) Register(name string, fn CmdFunc) {
	ip.setHost(name, fn)
	ip.shadowed |= builtinBit(name)
}

// Share makes every command of cmds callable, as if each were Registered,
// without copying the table: many interpreters may share one. The host
// must not modify cmds while any interpreter shares it. A command
// Registered or Unregistered later takes precedence over a shared one, and
// so does a table shared later.
func (ip *Interp) Share(cmds map[string]CmdFunc) {
	ip.host = append(ip.host, cmds)
	ip.ownTop = false
	for name := range cmds {
		ip.shadowed |= builtinBit(name)
	}
}

// setHost writes name into the interpreter's own table, on top of the
// stack; a nil fn removes the command.
func (ip *Interp) setHost(name string, fn CmdFunc) {
	if !ip.ownTop {
		ip.host = append(ip.host, make(map[string]CmdFunc))
		ip.ownTop = true
	}
	ip.host[len(ip.host)-1][name] = fn
}

// SetClientData attaches a value of the host's to the interpreter, for
// host commands shared by many interpreters to find what they act on.
func (ip *Interp) SetClientData(v any) { ip.data = v }

// ClientData returns what SetClientData attached.
func (ip *Interp) ClientData() any { return ip.data }

// Unregister removes a command from the table. Removing builtins is how
// hosts build restricted sandboxes. A shared table is not changed: the
// removal is an entry of the interpreter's own that hides the name.
func (ip *Interp) Unregister(name string) {
	if _, ok := ip.hostCmd(name); ok {
		ip.setHost(name, nil)
	}
	ip.hidden |= builtinBit(name)
	ip.shadowed |= builtinBit(name)
}

// hostCmd resolves a host command in the newest table that has its name;
// a nil entry there is a removed command.
func (ip *Interp) hostCmd(name string) (CmdFunc, bool) {
	for i := len(ip.host) - 1; i >= 0; i-- {
		if fn, ok := ip.host[i][name]; ok {
			return fn, fn != nil
		}
	}
	return nil, false
}

// Commands returns the sorted-later names of all registered commands
// (including builtins); used by `info commands` and sandbox auditing.
func (ip *Interp) Commands() []string {
	hosts := make(map[string]CmdFunc)
	for _, t := range ip.host {
		maps.Copy(hosts, t)
	}
	names := make([]string, 0, len(builtins)+len(hosts)+ip.numProcs())
	for n, b := range builtins {
		if _, isHost := hosts[n]; ip.hidden&b.bit == 0 && !isHost {
			names = append(names, n)
		}
	}
	for n, fn := range hosts {
		if fn != nil {
			names = append(names, n)
		}
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
func (ip *Interp) GetVar(name string) (string, bool) { return ip.global.get(name) }

// UnsetVar removes a global variable.
func (ip *Interp) UnsetVar(name string) { ip.global.unset(name) }

// GlobalVars returns a copy of the global variable table; the RDO layer
// uses this to capture object state after method execution.
func (ip *Interp) GlobalVars() map[string]string {
	g := &ip.global
	out := make(map[string]string, int(g.n)+len(g.more))
	for _, v := range g.vars[:g.n] {
		out[v.name] = v.value
	}
	for k, v := range g.more {
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

// varFrame returns the frame whose own variable name is in the active
// frame: the one a global or upvar links it to, or the active frame.
func (ip *Interp) varFrame(name string) *frame {
	fr := ip.current()
	if fr.links != nil {
		if target, ok := fr.links[name]; ok {
			return target
		}
	}
	return fr
}

// lookupVar reads a variable of the active frame, following links.
func (ip *Interp) lookupVar(name string) (string, bool) { return ip.varFrame(name).get(name) }

// setVarLocal writes a variable of the active frame, following links.
func (ip *Interp) setVarLocal(name, value string) { ip.varFrame(name).set(name, value) }

// unsetVarLocal removes a variable of the active frame, following links,
// and reports whether it existed.
func (ip *Interp) unsetVarLocal(name string) bool { return ip.varFrame(name).unset(name) }

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

// evalCommand expands the command's words onto the argument stack and
// dispatches it: straight to the builtin the compiler resolved when the
// interpreter does not shadow it, by name otherwise.
func (ip *Interp) evalCommand(cmd *Cmd) (string, *flow) {
	if f := ip.step(); f != nil {
		return "", f
	}
	base := len(ip.args)
	for _, w := range cmd.Words {
		v, f := ip.expandWord(w)
		if f != nil {
			ip.popArgs(base)
			return "", f
		}
		ip.args = append(ip.args, v)
	}
	top := len(ip.args)
	words := ip.args[base:top:top]
	var v string
	var f *flow
	if b := cmd.builtin; b != nil && ip.shadowed&b.bit == 0 {
		v, f = b.fn(ip, words[1:])
	} else {
		v, f = ip.dispatch(words)
	}
	ip.popArgs(base)
	return v, f
}

// popArgs drops the argument stack back to base, letting go of the values.
func (ip *Interp) popArgs(base int) {
	clear(ip.args[base:])
	ip.args = ip.args[:base]
}

func (ip *Interp) dispatch(words []string) (string, *flow) {
	name := words[0]
	if proc, ok := ip.lookupProc(name); ok {
		return ip.callProc(proc, words[1:])
	}
	if fn, ok := ip.hostCmd(name); ok {
		v, err := fn(ip, words[1:])
		if err != nil {
			return "", &flow{kind: flowError, val: err.Error(), err: err}
		}
		return v, nil
	}
	if b := builtins[name]; b != nil && ip.hidden&b.bit == 0 {
		return b.fn(ip, words[1:])
	}
	return "", errorFlow("invalid command name %q", name)
}

// expandWord substitutes a word. A word of one part is that part's value;
// the parts of a longer one are expanded onto the argument stack and
// joined in one allocation.
func (ip *Interp) expandWord(w *Word) (string, *flow) {
	if len(w.Parts) == 1 {
		return ip.expandPart(w.Parts[0])
	}
	base := len(ip.args)
	n := 0
	for _, part := range w.Parts {
		v, f := ip.expandPart(part)
		if f != nil {
			ip.popArgs(base)
			return "", f
		}
		ip.args = append(ip.args, v)
		n += len(v)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, v := range ip.args[base:] {
		sb.WriteString(v)
	}
	ip.popArgs(base)
	return sb.String(), nil
}

func (ip *Interp) expandPart(part Part) (string, *flow) {
	switch p := part.(type) {
	case LitPart:
		return string(p), nil
	case VarPart:
		v, ok := ip.lookupVar(string(p))
		if !ok {
			return "", errorFlow("can't read %q: no such variable", string(p))
		}
		return v, nil
	case CmdPart:
		v, f := ip.evalScript(p.Script)
		if f != nil && f.kind == flowReturn {
			// return inside [] behaves like its value (Tcl nuance
			// simplified: treat as value).
			return f.val, nil
		}
		return v, f
	}
	return "", nil
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
	if ip.nfree == len(ip.free) {
		return
	}
	fr.reset()
	ip.free[ip.nfree] = fr
	ip.nfree++
}

func bindParams(fr *frame, proc *Proc, args []string) error {
	i := 0
	for _, p := range proc.Params {
		if p.variadic {
			// variadic is last by construction
			fr.set(p.name, FormatList(args[i:]))
			i = len(args)
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
