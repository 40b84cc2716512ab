package rscript

// class is what evaluating a script leaves behind when every top-level
// command of it is a literal `proc name params body`: the procs, and the
// number of steps defining them costs. It is computed once per cached
// *Script, the first time Eval loads it, hangs off it, and so lives and dies
// by the program cache's bounds. It is immutable, and any number of
// interpreters bind the same one: loading such code is setting a pointer,
// not running the code.
//
// A class is the evaluator's result precomputed, not a second evaluator:
// every script it cannot describe exactly — a substituted word, a command
// other than proc, a parameter list proc rejects, a proc named "proc"
// (later definitions would call it) — has none and is evaluated.
type class struct {
	procs   map[string]*Proc // a name defined twice keeps its last definition
	defs    int64            // proc commands in the script, one step each
	shadows uint64           // builtin.bit of every proc named like a builtin
}

// loadClass returns the class of s, nil if s is not definitions only. Only
// Eval asks: a proc, loop or catch body is run, never loaded, so resolving
// one (newProc) is a flat parse however deep definitions nest in it, and
// the nested ones cost their steps and depth when they run.
func (s *Script) loadClass() *class {
	s.classOnce.Do(func() { s.class = newClass(s) })
	return s.class
}

func newClass(s *Script) *class {
	var c *class // made by the first definition: most scripts fail at their first command
	for _, cmd := range s.Cmds {
		if len(cmd.Words) != 4 {
			return nil
		}
		var words [4]string
		for i, w := range cmd.Words {
			lit, ok := w.literal()
			if !ok {
				return nil
			}
			words[i] = lit
		}
		if words[0] != "proc" || words[1] == "proc" {
			return nil
		}
		proc, f := newProc(words[1], words[2], words[3])
		if f != nil {
			return nil
		}
		if c == nil {
			c = &class{procs: make(map[string]*Proc, len(s.Cmds)), defs: int64(len(s.Cmds))}
		}
		c.procs[proc.Name] = proc
		c.shadows |= builtinBit(proc.Name)
	}
	return c
}

// bindClass makes c the interpreter's class, charging the steps evaluating
// the script would have, and reports whether it did. It does only when the
// outcome is the one evaluation would produce: the interpreter has no procs
// yet (a class's procs must not shadow, or be shadowed by, earlier ones),
// `proc` names the builtin (the host neither replaced nor removed it), and
// the budget covers every definition — when it does not, the evaluator
// fails at the command it runs out on.
func (ip *Interp) bindClass(c *class) bool {
	if c == nil || ip.class != nil || ip.own != nil {
		return false
	}
	if ip.shadowed&builtins["proc"].bit != 0 {
		return false
	}
	if ip.opts.StepBudget > 0 {
		if ip.steps+c.defs > ip.opts.StepBudget {
			return false
		}
		ip.steps += c.defs
	}
	ip.class = c
	ip.shadowed |= c.shadows
	return true
}
