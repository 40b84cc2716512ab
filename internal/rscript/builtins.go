package rscript

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// builtin is one standard command and its bit in Interp.hidden.
type builtin struct {
	fn  builtinFunc
	bit uint64
}

// builtins is the full standard command set, shared by every interpreter
// and read-only after init. Hosts building restricted sandboxes Unregister
// names per interpreter (see rdo.Sandbox), which sets the command's bit in
// that interpreter's hidden mask. It is filled in init rather than by its
// declaration because `info commands` reads it.
var builtins map[string]builtin

func init() {
	fns := map[string]builtinFunc{
		"set":      cmdSet,
		"unset":    cmdUnset,
		"incr":     cmdIncr,
		"append":   cmdAppend,
		"proc":     cmdProc,
		"return":   cmdReturn,
		"break":    cmdBreak,
		"continue": cmdContinue,
		"error":    cmdError,
		"catch":    cmdCatch,
		"if":       cmdIf,
		"while":    cmdWhile,
		"for":      cmdFor,
		"foreach":  cmdForeach,
		"switch":   cmdSwitch,
		"expr":     cmdExpr,
		"eval":     cmdEval,
		"global":   cmdGlobal,
		"upvar":    cmdUpvar,
		"list":     cmdList,
		"lindex":   cmdLindex,
		"llength":  cmdLlength,
		"lappend":  cmdLappend,
		"lrange":   cmdLrange,
		"lsearch":  cmdLsearch,
		"lreverse": cmdLreverse,
		"lsort":    cmdLsort,
		"linsert":  cmdLinsert,
		"lreplace": cmdLreplace,
		"split":    cmdSplit,
		"join":     cmdJoin,
		"concat":   cmdConcat,
		"string":   cmdString,
		"format":   cmdFormat,
		"puts":     cmdPuts,
		"info":     cmdInfo,
	}
	if len(fns) > 64 {
		panic("rscript: more builtins than bits in Interp.hidden")
	}
	builtins = make(map[string]builtin, len(fns))
	for name, fn := range fns {
		builtins[name] = builtin{fn: fn, bit: 1 << len(builtins)}
	}
}

func argErr(name, usage string) *flow {
	return errorFlow("wrong # args: should be %q", name+" "+usage)
}

func cmdSet(ip *Interp, args []string) (string, *flow) {
	switch len(args) {
	case 1:
		v, ok := ip.lookupVar(args[0])
		if !ok {
			return "", errorFlow("can't read %q: no such variable", args[0])
		}
		return v, nil
	case 2:
		ip.setVarLocal(args[0], args[1])
		return args[1], nil
	}
	return "", argErr("set", "varName ?newValue?")
}

func cmdUnset(ip *Interp, args []string) (string, *flow) {
	if len(args) == 0 {
		return "", argErr("unset", "varName ?varName ...?")
	}
	for _, name := range args {
		if !ip.unsetVarLocal(name) {
			return "", errorFlow("can't unset %q: no such variable", name)
		}
	}
	return "", nil
}

func cmdIncr(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 || len(args) > 2 {
		return "", argErr("incr", "varName ?increment?")
	}
	delta := int64(1)
	if len(args) == 2 {
		d, err := strconv.ParseInt(args[1], 0, 64)
		if err != nil {
			return "", errorFlow("incr: bad increment %q", args[1])
		}
		delta = d
	}
	cur := int64(0)
	if v, ok := ip.lookupVar(args[0]); ok {
		c, err := strconv.ParseInt(strings.TrimSpace(v), 0, 64)
		if err != nil {
			return "", errorFlow("incr: variable %q holds non-integer %q", args[0], v)
		}
		cur = c
	}
	cur += delta
	out := strconv.FormatInt(cur, 10)
	ip.setVarLocal(args[0], out)
	return out, nil
}

func cmdAppend(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 {
		return "", argErr("append", "varName ?value ...?")
	}
	cur, _ := ip.lookupVar(args[0])
	cur += strings.Join(args[1:], "")
	ip.setVarLocal(args[0], cur)
	return cur, nil
}

func cmdProc(ip *Interp, args []string) (string, *flow) {
	if len(args) != 3 {
		return "", argErr("proc", "name params body")
	}
	proc, f := newProc(args[0], args[1], args[2])
	if f != nil {
		return "", f
	}
	if ip.own == nil {
		ip.own = make(map[string]*Proc)
	}
	ip.own[proc.Name] = proc
	return "", nil
}

// newProc builds the procedure that `proc name params body` defines. A body
// that does not parse is not an error of the definition: calling the
// procedure reports it.
func newProc(name, params, body string) (*Proc, *flow) {
	paramList, err := ParseList(params)
	if err != nil {
		return nil, errorFlow("proc %q: bad parameter list: %v", name, err)
	}
	proc := &Proc{Name: name}
	for i, ps := range paramList {
		spec, err := ParseList(ps)
		if err != nil || len(spec) == 0 || len(spec) > 2 {
			return nil, errorFlow("proc %q: bad parameter %q", name, ps)
		}
		p := param{name: spec[0]}
		if len(spec) == 2 {
			p.def = spec[1]
			p.hasDef = true
		}
		if spec[0] == "args" && i == len(paramList)-1 && len(spec) == 1 {
			p.variadic = true
		}
		proc.Params = append(proc.Params, p)
	}
	proc.body, proc.bodyErr = parseCached(body)
	return proc, nil
}

func cmdReturn(ip *Interp, args []string) (string, *flow) {
	val := ""
	if len(args) > 1 {
		return "", argErr("return", "?value?")
	}
	if len(args) == 1 {
		val = args[0]
	}
	return "", &flow{kind: flowReturn, val: val}
}

func cmdBreak(ip *Interp, args []string) (string, *flow) {
	return "", &flow{kind: flowBreak}
}

func cmdContinue(ip *Interp, args []string) (string, *flow) {
	return "", &flow{kind: flowContinue}
}

func cmdError(ip *Interp, args []string) (string, *flow) {
	if len(args) != 1 {
		return "", argErr("error", "message")
	}
	return "", &flow{kind: flowError, val: args[0]}
}

func cmdCatch(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 || len(args) > 2 {
		return "", argErr("catch", "script ?resultVarName?")
	}
	v, err := func() (string, *flow) {
		s, perr := parseCached(args[0])
		if perr != nil {
			return "", errorFlow("%v", perr)
		}
		return ip.evalScript(s)
	}()
	code := "0"
	result := v
	if err != nil {
		switch err.kind {
		case flowError:
			// Budget exhaustion must not be catchable, or a hostile RDO
			// could loop forever absorbing its own budget errors.
			if err.err == ErrBudget {
				return "", err
			}
			code = "1"
			result = err.val
		case flowReturn:
			code = "2"
			result = err.val
		case flowBreak:
			code = "3"
		case flowContinue:
			code = "4"
		}
	}
	if len(args) == 2 {
		ip.setVarLocal(args[1], result)
	}
	return code, nil
}

func cmdIf(ip *Interp, args []string) (string, *flow) {
	i := 0
	for {
		if i >= len(args) {
			return "", argErr("if", "cond ?then? body ?elseif cond body ...? ?else body?")
		}
		cond := args[i]
		i++
		if i < len(args) && args[i] == "then" {
			i++
		}
		if i >= len(args) {
			return "", argErr("if", "cond ?then? body ...")
		}
		body := args[i]
		i++
		ok, f := ip.truthy(cond)
		if f != nil {
			return "", f
		}
		if ok {
			return ip.evalBody(body)
		}
		if i >= len(args) {
			return "", nil
		}
		switch args[i] {
		case "elseif":
			i++
			continue
		case "else":
			i++
			if i != len(args)-1 {
				return "", argErr("if", "... else body")
			}
			return ip.evalBody(args[i])
		default:
			return "", errorFlow("if: expected \"elseif\" or \"else\" but got %q", args[i])
		}
	}
}

func (ip *Interp) evalBody(body string) (string, *flow) {
	s, err := parseCached(body)
	if err != nil {
		return "", errorFlow("%v", err)
	}
	return ip.evalScript(s)
}

func cmdWhile(ip *Interp, args []string) (string, *flow) {
	if len(args) != 2 {
		return "", argErr("while", "condition body")
	}
	for {
		since := ip.steps
		ok, f := ip.truthy(args[0])
		if f != nil {
			return "", f
		}
		if !ok {
			return "", nil
		}
		_, f = ip.evalBody(args[1])
		if f != nil && f.kind != flowContinue {
			if f.kind == flowBreak {
				return "", nil
			}
			return "", f
		}
		if f := ip.stepIfIdle(since); f != nil {
			return "", f
		}
	}
}

func cmdFor(ip *Interp, args []string) (string, *flow) {
	if len(args) != 4 {
		return "", argErr("for", "start test next body")
	}
	if _, f := ip.evalBody(args[0]); f != nil {
		return "", f
	}
	for {
		since := ip.steps
		ok, f := ip.truthy(args[1])
		if f != nil {
			return "", f
		}
		if !ok {
			return "", nil
		}
		_, f = ip.evalBody(args[3])
		if f != nil {
			switch f.kind {
			case flowBreak:
				return "", nil
			case flowContinue:
				// fall through to next
			default:
				return "", f
			}
		}
		if _, f := ip.evalBody(args[2]); f != nil {
			return "", f
		}
		if f := ip.stepIfIdle(since); f != nil {
			return "", f
		}
	}
}

func cmdForeach(ip *Interp, args []string) (string, *flow) {
	if len(args) != 3 {
		return "", argErr("foreach", "varList list body")
	}
	vars, err := ParseList(args[0])
	if err != nil || len(vars) == 0 {
		return "", errorFlow("foreach: bad variable list %q", args[0])
	}
	items, err := ParseList(args[1])
	if err != nil {
		return "", errorFlow("foreach: bad list: %v", err)
	}
	for i := 0; i < len(items); i += len(vars) {
		for j, v := range vars {
			if i+j < len(items) {
				ip.setVarLocal(v, items[i+j])
			} else {
				ip.setVarLocal(v, "")
			}
		}
		_, f := ip.evalBody(args[2])
		if f != nil {
			switch f.kind {
			case flowBreak:
				return "", nil
			case flowContinue:
				continue
			default:
				return "", f
			}
		}
	}
	return "", nil
}

func cmdSwitch(ip *Interp, args []string) (string, *flow) {
	glob := false
	i := 0
	for i < len(args) && strings.HasPrefix(args[i], "-") {
		switch args[i] {
		case "-glob":
			glob = true
		case "-exact":
			glob = false
		case "--":
			i++
			goto done
		default:
			return "", errorFlow("switch: bad option %q", args[i])
		}
		i++
	}
done:
	if i >= len(args) {
		return "", argErr("switch", "?options? value {pattern body ...}")
	}
	val := args[i]
	i++
	var pairs []string
	switch {
	case len(args)-i == 1:
		var err error
		pairs, err = ParseList(args[i])
		if err != nil {
			return "", errorFlow("switch: bad pattern/body list: %v", err)
		}
	case (len(args)-i)%2 == 0:
		pairs = args[i:]
	default:
		return "", argErr("switch", "?options? value {pattern body ...}")
	}
	if len(pairs)%2 != 0 {
		return "", errorFlow("switch: unmatched pattern/body pairs")
	}
	for j := 0; j < len(pairs); j += 2 {
		pat, body := pairs[j], pairs[j+1]
		match := pat == "default" && j == len(pairs)-2
		if !match {
			if glob {
				match = globMatch(pat, val)
			} else {
				match = pat == val
			}
		}
		if match {
			// "-" body means fall through to the next body.
			for body == "-" && j+3 < len(pairs) {
				j += 2
				body = pairs[j+1]
			}
			return ip.evalBody(body)
		}
	}
	return "", nil
}

func cmdExpr(ip *Interp, args []string) (string, *flow) {
	if len(args) == 0 {
		return "", argErr("expr", "arg ?arg ...?")
	}
	v, f := ip.evalExpr(strings.Join(args, " "))
	if f != nil {
		return "", f
	}
	return v.String(), nil
}

func cmdEval(ip *Interp, args []string) (string, *flow) {
	if len(args) == 0 {
		return "", argErr("eval", "arg ?arg ...?")
	}
	return ip.evalBody(strings.Join(args, " "))
}

func cmdGlobal(ip *Interp, args []string) (string, *flow) {
	if len(args) == 0 {
		return "", argErr("global", "varName ?varName ...?")
	}
	fr := ip.current()
	if fr == &ip.global {
		return "", nil // no-op at global level
	}
	if fr.links == nil {
		fr.links = make(map[string]*frame)
	}
	for _, name := range args {
		fr.links[name] = &ip.global
	}
	return "", nil
}

func cmdUpvar(ip *Interp, args []string) (string, *flow) {
	// upvar ?level? otherVar localVar — only level 1 (and #0) supported.
	level := "1"
	if len(args) == 3 {
		level = args[0]
		args = args[1:]
	}
	if len(args) != 2 {
		return "", argErr("upvar", "?level? otherVar localVar")
	}
	var target *frame
	switch level {
	case "1":
		if len(ip.stack) < 2 {
			return "", errorFlow("upvar: no enclosing frame")
		}
		target = ip.stack[len(ip.stack)-2]
	case "#0":
		target = &ip.global
	default:
		return "", errorFlow("upvar: unsupported level %q", level)
	}
	fr := ip.current()
	if fr.links == nil {
		fr.links = make(map[string]*frame)
	}
	if args[0] != args[1] {
		// Link the local name to the *other* frame under the other name.
		// We only support same-name aliasing plus renames via copy
		// semantics on write: implement by linking localVar to a synthetic
		// entry is complex; restrict to same-name or emulate with rename.
		return "", errorFlow("upvar: only same-name aliasing is supported (got %q -> %q)", args[0], args[1])
	}
	fr.links[args[1]] = target
	return "", nil
}

func cmdList(ip *Interp, args []string) (string, *flow) {
	return FormatList(args), nil
}

func cmdLindex(ip *Interp, args []string) (string, *flow) {
	if len(args) != 2 {
		return "", argErr("lindex", "list index")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lindex: %v", err)
	}
	idx, f := listIndex(args[1], len(items))
	if f != nil {
		return "", f
	}
	if idx < 0 || idx >= len(items) {
		return "", nil
	}
	return items[idx], nil
}

// listIndex parses an index that may be "end" or "end-N".
func listIndex(s string, n int) (int, *flow) {
	if s == "end" {
		return n - 1, nil
	}
	if rest, ok := strings.CutPrefix(s, "end-"); ok {
		k, err := strconv.Atoi(rest)
		if err != nil {
			return 0, errorFlow("bad index %q", s)
		}
		return n - 1 - k, nil
	}
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, errorFlow("bad index %q", s)
	}
	return k, nil
}

func cmdLlength(ip *Interp, args []string) (string, *flow) {
	if len(args) != 1 {
		return "", argErr("llength", "list")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("llength: %v", err)
	}
	return strconv.Itoa(len(items)), nil
}

func cmdLappend(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 {
		return "", argErr("lappend", "varName ?value ...?")
	}
	cur, _ := ip.lookupVar(args[0])
	items, err := ParseList(cur)
	if err != nil {
		return "", errorFlow("lappend: variable %q is not a list: %v", args[0], err)
	}
	items = append(items, args[1:]...)
	out := FormatList(items)
	ip.setVarLocal(args[0], out)
	return out, nil
}

func cmdLrange(ip *Interp, args []string) (string, *flow) {
	if len(args) != 3 {
		return "", argErr("lrange", "list first last")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lrange: %v", err)
	}
	first, f := listIndex(args[1], len(items))
	if f != nil {
		return "", f
	}
	last, f := listIndex(args[2], len(items))
	if f != nil {
		return "", f
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	if first > last {
		return "", nil
	}
	return FormatList(items[first : last+1]), nil
}

func cmdLsearch(ip *Interp, args []string) (string, *flow) {
	glob := false
	for len(args) > 2 {
		switch args[0] {
		case "-glob":
			glob = true
		case "-exact":
			glob = false
		default:
			return "", errorFlow("lsearch: bad option %q", args[0])
		}
		args = args[1:]
	}
	if len(args) != 2 {
		return "", argErr("lsearch", "?options? list pattern")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lsearch: %v", err)
	}
	for i, item := range items {
		if glob && globMatch(args[1], item) || !glob && item == args[1] {
			return strconv.Itoa(i), nil
		}
	}
	return "-1", nil
}

func cmdLreverse(ip *Interp, args []string) (string, *flow) {
	if len(args) != 1 {
		return "", argErr("lreverse", "list")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lreverse: %v", err)
	}
	for i, j := 0, len(items)-1; i < j; i, j = i+1, j-1 {
		items[i], items[j] = items[j], items[i]
	}
	return FormatList(items), nil
}

func cmdLinsert(ip *Interp, args []string) (string, *flow) {
	if len(args) < 2 {
		return "", argErr("linsert", "list index ?element ...?")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("linsert: %v", err)
	}
	idx, f := listIndex(args[1], len(items)+1)
	if f != nil {
		return "", f
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(items) {
		idx = len(items)
	}
	out := make([]string, 0, len(items)+len(args)-2)
	out = append(out, items[:idx]...)
	out = append(out, args[2:]...)
	out = append(out, items[idx:]...)
	return FormatList(out), nil
}

func cmdLreplace(ip *Interp, args []string) (string, *flow) {
	if len(args) < 3 {
		return "", argErr("lreplace", "list first last ?element ...?")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lreplace: %v", err)
	}
	first, f := listIndex(args[1], len(items))
	if f != nil {
		return "", f
	}
	last, f := listIndex(args[2], len(items))
	if f != nil {
		return "", f
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	out := make([]string, 0, len(items))
	if first <= last {
		out = append(out, items[:first]...)
		out = append(out, args[3:]...)
		out = append(out, items[last+1:]...)
	} else {
		// Nothing removed: insert before `first` (Tcl semantics).
		if first > len(items) {
			first = len(items)
		}
		out = append(out, items[:first]...)
		out = append(out, args[3:]...)
		out = append(out, items[first:]...)
	}
	return FormatList(out), nil
}

func cmdLsort(ip *Interp, args []string) (string, *flow) {
	integer := false
	decreasing := false
	for len(args) > 1 {
		switch args[0] {
		case "-integer":
			integer = true
		case "-decreasing":
			decreasing = true
		case "-increasing":
			decreasing = false
		case "-ascii":
			integer = false
		default:
			return "", errorFlow("lsort: bad option %q", args[0])
		}
		args = args[1:]
	}
	if len(args) != 1 {
		return "", argErr("lsort", "?options? list")
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("lsort: %v", err)
	}
	var sortErr *flow
	sort.SliceStable(items, func(i, j int) bool {
		if integer {
			a, err1 := strconv.ParseInt(items[i], 0, 64)
			b, err2 := strconv.ParseInt(items[j], 0, 64)
			if err1 != nil || err2 != nil {
				if sortErr == nil {
					sortErr = errorFlow("lsort: non-integer element")
				}
				return false
			}
			if decreasing {
				return a > b
			}
			return a < b
		}
		if decreasing {
			return items[i] > items[j]
		}
		return items[i] < items[j]
	})
	if sortErr != nil {
		return "", sortErr
	}
	return FormatList(items), nil
}

func cmdSplit(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 || len(args) > 2 {
		return "", argErr("split", "string ?splitChars?")
	}
	seps := " \t\n\r"
	if len(args) == 2 {
		seps = args[1]
	}
	var parts []string
	if seps == "" {
		for _, r := range args[0] {
			parts = append(parts, string(r))
		}
	} else {
		// Tcl's split keeps empty fields, unlike strings.FieldsFunc.
		parts = splitKeepEmpty(args[0], seps)
	}
	return FormatList(parts), nil
}

func splitKeepEmpty(s, seps string) []string {
	var parts []string
	start := 0
	for i := 0; i < len(s); {
		// The decoded width, not the rune's encoded length: an invalid
		// byte decodes to U+FFFD (3 bytes encoded) but is 1 byte wide.
		r, w := utf8.DecodeRuneInString(s[i:])
		if strings.ContainsRune(seps, r) {
			parts = append(parts, s[start:i])
			start = i + w
		}
		i += w
	}
	parts = append(parts, s[start:])
	return parts
}

func cmdJoin(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 || len(args) > 2 {
		return "", argErr("join", "list ?joinString?")
	}
	sep := " "
	if len(args) == 2 {
		sep = args[1]
	}
	items, err := ParseList(args[0])
	if err != nil {
		return "", errorFlow("join: %v", err)
	}
	return strings.Join(items, sep), nil
}

func cmdConcat(ip *Interp, args []string) (string, *flow) {
	var trimmed []string
	for _, a := range args {
		t := strings.TrimSpace(a)
		if t != "" {
			trimmed = append(trimmed, t)
		}
	}
	return strings.Join(trimmed, " "), nil
}

func cmdString(ip *Interp, args []string) (string, *flow) {
	if len(args) < 2 {
		return "", argErr("string", "subcommand string ?arg ...?")
	}
	sub := args[0]
	s := args[1]
	rest := args[2:]
	switch sub {
	case "length":
		return strconv.Itoa(len(s)), nil
	case "tolower":
		return strings.ToLower(s), nil
	case "toupper":
		return strings.ToUpper(s), nil
	case "trim":
		if len(rest) == 1 {
			return strings.Trim(s, rest[0]), nil
		}
		return strings.TrimSpace(s), nil
	case "trimleft":
		if len(rest) == 1 {
			return strings.TrimLeft(s, rest[0]), nil
		}
		return strings.TrimLeft(s, " \t\n\r"), nil
	case "trimright":
		if len(rest) == 1 {
			return strings.TrimRight(s, rest[0]), nil
		}
		return strings.TrimRight(s, " \t\n\r"), nil
	case "index":
		if len(rest) != 1 {
			return "", argErr("string index", "string charIndex")
		}
		idx, f := listIndex(rest[0], len(s))
		if f != nil {
			return "", f
		}
		if idx < 0 || idx >= len(s) {
			return "", nil
		}
		return string(s[idx]), nil
	case "range":
		if len(rest) != 2 {
			return "", argErr("string range", "string first last")
		}
		first, f := listIndex(rest[0], len(s))
		if f != nil {
			return "", f
		}
		last, f := listIndex(rest[1], len(s))
		if f != nil {
			return "", f
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return "", nil
		}
		return s[first : last+1], nil
	case "match":
		if len(rest) != 1 {
			return "", argErr("string match", "pattern string")
		}
		// Tcl order: string match pattern string — here s is the pattern.
		if globMatch(s, rest[0]) {
			return "1", nil
		}
		return "0", nil
	case "compare":
		if len(rest) != 1 {
			return "", argErr("string compare", "string1 string2")
		}
		return strconv.Itoa(strings.Compare(s, rest[0])), nil
	case "equal":
		if len(rest) != 1 {
			return "", argErr("string equal", "string1 string2")
		}
		if s == rest[0] {
			return "1", nil
		}
		return "0", nil
	case "first":
		if len(rest) != 1 {
			return "", argErr("string first", "needle haystack")
		}
		return strconv.Itoa(strings.Index(rest[0], s)), nil
	case "last":
		if len(rest) != 1 {
			return "", argErr("string last", "needle haystack")
		}
		return strconv.Itoa(strings.LastIndex(rest[0], s)), nil
	case "map":
		// string map {from to from to ...} string
		if len(rest) != 1 {
			return "", argErr("string map", "mapping string")
		}
		pairs, err := ParseList(s)
		if err != nil || len(pairs)%2 != 0 {
			return "", errorFlow("string map: bad mapping %q", s)
		}
		oldnew := make([]string, 0, len(pairs))
		oldnew = append(oldnew, pairs...)
		return strings.NewReplacer(oldnew...).Replace(rest[0]), nil
	case "repeat":
		if len(rest) != 1 {
			return "", argErr("string repeat", "string count")
		}
		nRep, err := strconv.Atoi(rest[0])
		if err != nil || nRep < 0 {
			return "", errorFlow("string repeat: bad count %q", rest[0])
		}
		if nRep*len(s) > 1<<20 {
			return "", errorFlow("string repeat: result too large")
		}
		return strings.Repeat(s, nRep), nil
	}
	return "", errorFlow("string: unknown subcommand %q", sub)
}

func cmdFormat(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 {
		return "", argErr("format", "formatString ?arg ...?")
	}
	spec := args[0]
	vals := args[1:]
	var sb strings.Builder
	vi := 0
	i := 0
	for i < len(spec) {
		c := spec[i]
		if c != '%' {
			sb.WriteByte(c)
			i++
			continue
		}
		j := i + 1
		for j < len(spec) && (spec[j] == '-' || spec[j] == '+' || spec[j] == ' ' ||
			spec[j] == '0' || spec[j] == '#' || spec[j] >= '0' && spec[j] <= '9' || spec[j] == '.') {
			j++
		}
		if j >= len(spec) {
			return "", errorFlow("format: trailing %%")
		}
		verb := spec[j]
		directive := spec[i : j+1]
		i = j + 1
		if verb == '%' {
			sb.WriteByte('%')
			continue
		}
		if vi >= len(vals) {
			return "", errorFlow("format: not enough arguments")
		}
		arg := vals[vi]
		vi++
		switch verb {
		case 'd', 'i':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", errorFlow("format: expected integer, got %q", arg)
			}
			fmt.Fprintf(&sb, strings.Replace(directive, "i", "d", 1), n)
		case 'x', 'X', 'o', 'b':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return "", errorFlow("format: expected integer, got %q", arg)
			}
			fmt.Fprintf(&sb, directive, n)
		case 'f', 'e', 'g', 'E', 'G':
			fv, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return "", errorFlow("format: expected float, got %q", arg)
			}
			fmt.Fprintf(&sb, directive, fv)
		case 's':
			fmt.Fprintf(&sb, directive, arg)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 32)
			if err != nil {
				return "", errorFlow("format: expected char code, got %q", arg)
			}
			sb.WriteRune(rune(n))
		default:
			return "", errorFlow("format: bad verb %%%c", verb)
		}
	}
	return sb.String(), nil
}

func cmdPuts(ip *Interp, args []string) (string, *flow) {
	nonewline := false
	if len(args) == 2 && args[0] == "-nonewline" {
		nonewline = true
		args = args[1:]
	}
	if len(args) != 1 {
		return "", argErr("puts", "?-nonewline? string")
	}
	if ip.opts.Stdout != nil {
		if nonewline {
			fmt.Fprint(ip.opts.Stdout, args[0])
		} else {
			fmt.Fprintln(ip.opts.Stdout, args[0])
		}
	}
	return "", nil
}

func cmdInfo(ip *Interp, args []string) (string, *flow) {
	if len(args) < 1 {
		return "", argErr("info", "subcommand ?arg ...?")
	}
	switch args[0] {
	case "exists":
		if len(args) != 2 {
			return "", argErr("info exists", "varName")
		}
		if _, ok := ip.lookupVar(args[1]); ok {
			return "1", nil
		}
		return "0", nil
	case "commands":
		names := ip.Commands()
		sort.Strings(names)
		return FormatList(names), nil
	case "procs":
		names := ip.Procs()
		sort.Strings(names)
		return FormatList(names), nil
	case "steps":
		return strconv.FormatInt(ip.steps, 10), nil
	}
	return "", errorFlow("info: unknown subcommand %q", args[0])
}

// globMatch implements Tcl's string-match globbing: '*' matches any
// sequence, '?' any single character, '[a-z]' character classes, and '\x'
// escapes x.
func globMatch(pattern, s string) bool {
	return globMatchAt(pattern, s)
}

func globMatchAt(p, s string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '*':
			for len(p) > 0 && p[0] == '*' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if globMatchAt(p, s[i:]) {
					return true
				}
			}
			return false
		case '?':
			if len(s) == 0 {
				return false
			}
			p, s = p[1:], s[1:]
		case '[':
			if len(s) == 0 {
				return false
			}
			end := strings.IndexByte(p, ']')
			if end < 0 {
				// Malformed class: literal '['.
				if s[0] != '[' {
					return false
				}
				p, s = p[1:], s[1:]
				continue
			}
			if !classMatch(p[1:end], s[0]) {
				return false
			}
			p, s = p[end+1:], s[1:]
		case '\\':
			if len(p) < 2 {
				return len(s) == 1 && s[0] == '\\'
			}
			if len(s) == 0 || s[0] != p[1] {
				return false
			}
			p, s = p[2:], s[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
	return len(s) == 0
}

func classMatch(class string, c byte) bool {
	i := 0
	for i < len(class) {
		if i+2 < len(class) && class[i+1] == '-' {
			if c >= class[i] && c <= class[i+2] {
				return true
			}
			i += 3
			continue
		}
		if class[i] == c {
			return true
		}
		i++
	}
	return false
}
