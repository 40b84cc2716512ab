package rscript

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The expr evaluator. As in Tcl, `expr` (and the conditions of if/while/
// for) receives a string and performs its own round of variable and
// command substitution while tokenizing, which is why conditions are
// normally brace-quoted. Values are typed int64, float64, or string;
// arithmetic promotes int to float; comparison operators compare
// numerically when both operands parse as numbers and lexically otherwise;
// `eq` and `ne` always compare as strings.
//
// The source is compiled once (compileExpr) into its $var and [cmd]
// operands and a postfix program over their values; the operands are
// resolved each time the expression is evaluated.
//
// Substitution is eager (every operand is resolved, in source order,
// before evaluation), so `&&`/`||` short-circuit the *evaluation* but not
// the substitution of their right operands. The step budget still bounds
// any recursion this permits.

type valueKind int

const (
	vInt valueKind = iota
	vFloat
	vString
)

type value struct {
	kind valueKind
	i    int64
	f    float64
	s    string
}

func intVal(i int64) value     { return value{kind: vInt, i: i} }
func floatVal(f float64) value { return value{kind: vFloat, f: f} }
func strVal(s string) value    { return value{kind: vString, s: s} }
func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func (v value) String() string {
	switch v.kind {
	case vInt:
		return strconv.FormatInt(v.i, 10)
	case vFloat:
		return formatFloat(v.f)
	default:
		return v.s
	}
}

// formatFloat renders a float so that integral values keep a ".0" marker,
// as Tcl does, so floatness survives round trips through strings.
func formatFloat(f float64) string {
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") && !math.IsInf(f, 0) && !math.IsNaN(f) {
		s += ".0"
	}
	return s
}

func (v value) isNumeric() bool { return v.kind != vString }

func (v value) asFloat() float64 {
	switch v.kind {
	case vInt:
		return float64(v.i)
	case vFloat:
		return v.f
	}
	return 0
}

// classify parses a string into the most specific numeric value.
func classify(s string) value {
	t := strings.TrimSpace(s)
	if t == "" {
		return strVal(s)
	}
	if i, err := strconv.ParseInt(t, 0, 64); err == nil {
		return intVal(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return floatVal(f)
	}
	return strVal(s)
}

// exprToken kinds.
type exprTokKind int

const (
	tokValue exprTokKind = iota
	tokOp
	tokLParen
	tokRParen
	tokComma
	tokIdent
	tokOperand // $name or [script]: exprTok.slot indexes exprProg.operands
)

type exprTok struct {
	kind exprTokKind
	val  value  // tokValue
	op   string // tokOp
	id   string // tokIdent
	slot int    // tokOperand
}

// exprOperand is a $var (script nil) or [cmd] operand of an expression.
type exprOperand struct {
	name   string
	script *Script
}

// exprProg is the compiled form of one expr source: its $var and [cmd]
// operands in source order, and a postfix program over their values. Like
// a *Script it is read-only once compiled and shared through the cache.
// Evaluation substitutes every operand first, as a single
// scan-and-substitute pass would; a lexical error does not discard the
// operands before it — they are substituted, and then lexErr is reported.
//
// The language defines an expression's errors by a precedence descent
// that evaluates as it parses: the first failure in that order is the one
// reported. The descent runs once, at compile time, and emits each
// operator where it would apply it, so values are computed, and fail, in
// that order. A grammar error becomes an exprFail instruction at the point
// the descent stops, so whatever it would have evaluated before noticing
// still runs, and may fail first.
type exprProg struct {
	operands []exprOperand
	lexErr   string // message of the error that ended the scan, or ""
	code     []exprInstr
	depth    int // most values code holds on the stack at once
}

type exprOpcode uint8

const (
	exprPush   exprOpcode = iota // push val
	exprLoad                     // push the value of operand n
	exprFail                     // fail with text
	exprBinary                   // apply op to the top two values
	exprUnary                    // apply op to the top value
	exprCall                     // apply function text to the top n values
)

type exprInstr struct {
	code exprOpcode
	text string // operator, function name or error message
	val  value
	n    int
}

// compileExpr scans src into tokens and compiles them.
func compileExpr(src string) *exprProg {
	prog := &exprProg{}
	toks, lexErr := prog.scan(src)
	if lexErr != "" {
		prog.lexErr = lexErr
		return prog
	}
	c := exprCompiler{toks: toks, prog: prog}
	if c.or() && c.pos != len(toks) {
		c.fail("expr: trailing tokens in %q", src)
	}
	return prog
}

// scan tokenizes src, recording $var and [cmd] operands as it meets them.
func (prog *exprProg) scan(src string) ([]exprTok, string) {
	var toks []exprTok
	operand := func(o exprOperand) {
		toks = append(toks, exprTok{kind: tokOperand, slot: len(prog.operands)})
		prog.operands = append(prog.operands, o)
	}
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			hex := i+1 < n && src[i] == '0' && (src[i+1] == 'x' || src[i+1] == 'X')
			j := i
			isFloat := false
			for j < n {
				cj := src[j]
				if cj >= '0' && cj <= '9' || cj == '.' ||
					cj == 'x' || cj == 'X' ||
					(cj >= 'a' && cj <= 'f' || cj >= 'A' && cj <= 'F') && hex ||
					(cj == 'e' || cj == 'E') && !hex ||
					(cj == '+' || cj == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E') && !hex {
					if cj == '.' || cj == 'e' || cj == 'E' {
						isFloat = true
					}
					j++
					continue
				}
				break
			}
			lit := src[i:j]
			if isFloat && !hex {
				f, err := strconv.ParseFloat(lit, 64)
				if err != nil {
					return toks, fmt.Sprintf("expr: bad number %q", lit)
				}
				toks = append(toks, exprTok{kind: tokValue, val: floatVal(f)})
			} else {
				v, err := strconv.ParseInt(lit, 0, 64)
				if err != nil {
					return toks, fmt.Sprintf("expr: bad number %q", lit)
				}
				toks = append(toks, exprTok{kind: tokValue, val: intVal(v)})
			}
			i = j
		case c == '$':
			p := &parser{src: src, pos: i, line: 1}
			name, ok := p.scanVarName()
			if !ok {
				return toks, "expr: bad variable reference"
			}
			i = p.pos
			operand(exprOperand{name: name})
		case c == '[':
			p := &parser{src: src, pos: i + 1, line: 1}
			inner, err := p.parseScript(']')
			if err != nil {
				return toks, fmt.Sprintf("expr: %v", err)
			}
			i = p.pos
			operand(exprOperand{script: inner})
		case c == '"':
			var sb strings.Builder
			j := i + 1
			for j < n && src[j] != '"' {
				if src[j] == '\\' && j+1 < n {
					val, consumed := scanEscape(src[j:])
					sb.WriteString(val)
					j += consumed
					continue
				}
				sb.WriteByte(src[j])
				j++
			}
			if j >= n {
				return toks, "expr: missing close quote"
			}
			toks = append(toks, exprTok{kind: tokValue, val: strVal(sb.String())})
			i = j + 1
		case c == '{':
			depth := 1
			j := i + 1
			for j < n && depth > 0 {
				switch src[j] {
				case '{':
					depth++
				case '}':
					depth--
				}
				j++
			}
			if depth != 0 {
				return toks, "expr: missing close brace"
			}
			toks = append(toks, exprTok{kind: tokValue, val: strVal(src[i+1 : j-1])})
			i = j
		case c == '(':
			toks = append(toks, exprTok{kind: tokLParen})
			i++
		case c == ')':
			toks = append(toks, exprTok{kind: tokRParen})
			i++
		case c == ',':
			toks = append(toks, exprTok{kind: tokComma})
			i++
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			toks = append(toks, exprTok{kind: tokIdent, id: src[i:j]})
			i = j
		default:
			for _, op := range exprOps {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, exprTok{kind: tokOp, op: op})
					i += len(op)
					goto next
				}
			}
			return toks, fmt.Sprintf("expr: unexpected character %q", string(c))
		next:
		}
	}
	return toks, ""
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// exprOps lists operators longest-first so the tokenizer matches greedily.
var exprOps = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
	"+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
}

// exprCompiler is the precedence descent over an expression's tokens,
// emitting postfix code. Every method reports whether it parsed its
// production; one that did not has emitted the exprFail that ends the
// program, and its callers stop emitting.
type exprCompiler struct {
	toks  []exprTok
	pos   int
	prog  *exprProg
	stack int // values on the stack after the code emitted so far
}

func (c *exprCompiler) emit(in exprInstr, pops, pushes int) {
	c.prog.code = append(c.prog.code, in)
	c.stack += pushes - pops
	c.prog.depth = max(c.prog.depth, c.stack)
}

func (c *exprCompiler) fail(format string, args ...any) bool {
	c.emit(exprInstr{code: exprFail, text: fmt.Sprintf(format, args...)}, 0, 0)
	return false
}

func (c *exprCompiler) peek() *exprTok {
	if c.pos < len(c.toks) {
		return &c.toks[c.pos]
	}
	return nil
}

// accept consumes the next token if it is one of ops (an operator, or an
// identifier when ident is set) and returns it.
func (c *exprCompiler) accept(ident bool, ops ...string) (string, bool) {
	t := c.peek()
	if t == nil || ident && t.kind != tokIdent || !ident && t.kind != tokOp {
		return "", false
	}
	text := t.op
	if ident {
		text = t.id
	}
	for _, op := range ops {
		if text == op {
			c.pos++
			return op, true
		}
	}
	return "", false
}

// binary parses one left-associative precedence level: operands by next,
// joined by any of ops, each applied where the descent applied it.
func (c *exprCompiler) binary(next func() bool, ops ...string) bool {
	if !next() {
		return false
	}
	for {
		op, ok := c.accept(false, ops...)
		if !ok {
			return true
		}
		if !next() {
			return false
		}
		c.emit(exprInstr{code: exprBinary, text: op}, 2, 1)
	}
}

func (c *exprCompiler) or() bool     { return c.binary(c.and, "||") }
func (c *exprCompiler) and() bool    { return c.binary(c.bitOr, "&&") }
func (c *exprCompiler) bitOr() bool  { return c.binary(c.bitXor, "|") }
func (c *exprCompiler) bitXor() bool { return c.binary(c.bitAnd, "^") }
func (c *exprCompiler) bitAnd() bool { return c.binary(c.equality, "&") }

// equality is == and != (numeric when both sides are) interleaved with eq
// and ne (always strings) at one level.
func (c *exprCompiler) equality() bool {
	if !c.relational() {
		return false
	}
	for {
		op, ok := c.accept(false, "==", "!=")
		if !ok {
			if op, ok = c.accept(true, "eq", "ne"); !ok {
				return true
			}
		}
		if !c.relational() {
			return false
		}
		c.emit(exprInstr{code: exprBinary, text: op}, 2, 1)
	}
}

func (c *exprCompiler) relational() bool     { return c.binary(c.shift, "<", ">", "<=", ">=") }
func (c *exprCompiler) shift() bool          { return c.binary(c.additive, "<<", ">>") }
func (c *exprCompiler) additive() bool       { return c.binary(c.multiplicative, "+", "-") }
func (c *exprCompiler) multiplicative() bool { return c.binary(c.unary, "*", "/", "%", "**") }

func (c *exprCompiler) unary() bool {
	if op, ok := c.accept(false, "-", "+", "!", "~"); ok {
		if !c.unary() {
			return false
		}
		c.emit(exprInstr{code: exprUnary, text: op}, 1, 1)
		return true
	}
	return c.primary()
}

func (c *exprCompiler) primary() bool {
	t := c.peek()
	if t == nil {
		return c.fail("expr: unexpected end of expression")
	}
	switch t.kind {
	case tokValue:
		c.pos++
		c.emit(exprInstr{code: exprPush, val: t.val}, 0, 1)
		return true
	case tokOperand:
		c.pos++
		c.emit(exprInstr{code: exprLoad, n: t.slot}, 0, 1)
		return true
	case tokLParen:
		c.pos++
		if !c.or() {
			return false
		}
		if tt := c.peek(); tt == nil || tt.kind != tokRParen {
			return c.fail("expr: missing close paren")
		}
		c.pos++
		return true
	case tokIdent:
		id := t.id
		c.pos++
		switch id {
		case "true", "yes", "on":
			c.emit(exprInstr{code: exprPush, val: boolVal(true)}, 0, 1)
			return true
		case "false", "no", "off":
			c.emit(exprInstr{code: exprPush, val: boolVal(false)}, 0, 1)
			return true
		}
		if tt := c.peek(); tt == nil || tt.kind != tokLParen {
			return c.fail("expr: bare word %q (quote strings)", id)
		}
		c.pos++
		n := 0
		if tt := c.peek(); tt != nil && tt.kind == tokRParen {
			c.pos++
		} else {
			for {
				if !c.or() {
					return false
				}
				n++
				tt := c.peek()
				if tt == nil {
					return c.fail("expr: missing close paren")
				}
				c.pos++
				if tt.kind == tokComma {
					continue
				}
				if tt.kind == tokRParen {
					break
				}
				return c.fail("expr: bad function arguments")
			}
		}
		c.emit(exprInstr{code: exprCall, text: id, n: n}, n, 1)
		return true
	}
	return c.fail("expr: unexpected token")
}

// evalExpr evaluates a compiled expression: its operands substituted in
// source order against the interpreter's current state, then its code.
func (ip *Interp) evalExpr(prog *exprProg) (value, *flow) {
	// The operands' values, then the stack the code runs on.
	var room [8]value
	buf := room[:]
	if n := len(prog.operands) + prog.depth; n > len(room) {
		buf = make([]value, n)
	}
	vals := buf[:len(prog.operands)]
	stack := buf[len(vals):len(vals)]
	for i, o := range prog.operands {
		var v string
		if o.script == nil {
			var found bool
			if v, found = ip.lookupVar(o.name); !found {
				return value{}, errorFlow("can't read %q: no such variable", o.name)
			}
		} else {
			var f *flow
			if v, f = ip.evalScript(o.script); f != nil {
				if f.kind != flowReturn {
					return value{}, f
				}
				v = f.val
			}
		}
		vals[i] = classify(v)
	}
	if prog.lexErr != "" {
		return value{}, &flow{kind: flowError, val: prog.lexErr}
	}
	for i := range prog.code {
		in := &prog.code[i]
		var f *flow
		switch in.code {
		case exprPush:
			stack = append(stack, in.val)
			continue
		case exprLoad:
			stack = append(stack, vals[in.n])
			continue
		case exprFail:
			return value{}, &flow{kind: flowError, val: in.text}
		case exprUnary:
			top := &stack[len(stack)-1]
			*top, f = unaryOp(in.text, *top)
		case exprCall:
			args := stack[len(stack)-in.n:]
			var v value
			v, f = applyFunc(in.text, args)
			stack = append(stack[:len(stack)-in.n], v)
		default:
			l, r := &stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			*l, f = binaryOp(in.text, *l, r)
		}
		if f != nil {
			return value{}, f
		}
	}
	return stack[0], nil
}

// truthy evaluates a condition.
func (ip *Interp) truthy(src string) (bool, *flow) {
	v, f := ip.evalExpr(compileExprCached(src))
	if f != nil {
		return false, f
	}
	return valueTruthy(v)
}

func valueTruthy(v value) (bool, *flow) {
	switch v.kind {
	case vInt:
		return v.i != 0, nil
	case vFloat:
		return v.f != 0, nil
	default:
		switch strings.ToLower(strings.TrimSpace(v.s)) {
		case "true", "yes", "on", "1":
			return true, nil
		case "false", "no", "off", "0", "":
			return false, nil
		}
		return false, errorFlow("expected boolean value but got %q", v.s)
	}
}

// binaryOp applies a binary operator to its operands.
func binaryOp(op string, l, r value) (value, *flow) {
	switch op {
	case "||", "&&":
		lb, f := valueTruthy(l)
		if f != nil {
			return value{}, f
		}
		if lb == (op == "||") {
			return boolVal(lb), nil
		}
		rb, f := valueTruthy(r)
		if f != nil {
			return value{}, f
		}
		return boolVal(rb), nil
	case "|", "^", "&", "<<", ">>":
		if l.kind != vInt || r.kind != vInt {
			return value{}, errorFlow("expr: operator %q requires integer operands", op)
		}
		a, b := l.i, r.i
		switch op {
		case "|":
			return intVal(a | b), nil
		case "^":
			return intVal(a ^ b), nil
		case "&":
			return intVal(a & b), nil
		}
		if b < 0 || b > 63 {
			return value{}, errorFlow("expr: shift count %d out of range", b)
		}
		if op == "<<" {
			return intVal(a << uint(b)), nil
		}
		return intVal(a >> uint(b)), nil
	case "==", "!=":
		return boolVal(valuesEqual(l, r) == (op == "==")), nil
	case "eq", "ne":
		return boolVal((l.String() == r.String()) == (op == "eq")), nil
	case "<", ">", "<=", ">=":
		var cmp int
		if l.isNumeric() && r.isNumeric() {
			lf, rf := l.asFloat(), r.asFloat()
			switch {
			case lf < rf:
				cmp = -1
			case lf > rf:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(l.String(), r.String())
		}
		switch op {
		case "<":
			return boolVal(cmp < 0), nil
		case ">":
			return boolVal(cmp > 0), nil
		case "<=":
			return boolVal(cmp <= 0), nil
		}
		return boolVal(cmp >= 0), nil
	}
	return arith(op, l, r)
}

func valuesEqual(a, b value) bool {
	if a.isNumeric() && b.isNumeric() {
		if a.kind == vInt && b.kind == vInt {
			return a.i == b.i
		}
		return a.asFloat() == b.asFloat()
	}
	// Tcl coerces: "5" == 5 is true. classify() already promoted numeric
	// strings at substitution, so remaining strings are non-numeric.
	return a.String() == b.String()
}

func unaryOp(op string, v value) (value, *flow) {
	switch op {
	case "-":
		switch v.kind {
		case vInt:
			return intVal(-v.i), nil
		case vFloat:
			return floatVal(-v.f), nil
		}
		return value{}, errorFlow("expr: unary - on non-number %q", v.String())
	case "+":
		if !v.isNumeric() {
			return value{}, errorFlow("expr: unary + on non-number %q", v.String())
		}
		return v, nil
	case "!":
		b, f := valueTruthy(v)
		if f != nil {
			return value{}, f
		}
		return boolVal(!b), nil
	}
	if v.kind != vInt {
		return value{}, errorFlow("expr: ~ requires an integer")
	}
	return intVal(^v.i), nil
}

// arith applies an arithmetic operator: + - * / % **.
func arith(op string, a, b value) (value, *flow) {
	if !a.isNumeric() || !b.isNumeric() {
		return value{}, errorFlow("expr: operator %q requires numeric operands (got %q, %q)", op, a.String(), b.String())
	}
	if a.kind == vInt && b.kind == vInt {
		switch op {
		case "+":
			return intVal(a.i + b.i), nil
		case "-":
			return intVal(a.i - b.i), nil
		case "*":
			return intVal(a.i * b.i), nil
		case "/":
			if b.i == 0 {
				return value{}, errorFlow("expr: divide by zero")
			}
			// Tcl floors integer division toward negative infinity.
			q := a.i / b.i
			if (a.i%b.i != 0) && ((a.i < 0) != (b.i < 0)) {
				q--
			}
			return intVal(q), nil
		case "%":
			if b.i == 0 {
				return value{}, errorFlow("expr: divide by zero")
			}
			m := a.i % b.i
			if m != 0 && (m < 0) != (b.i < 0) {
				m += b.i
			}
			return intVal(m), nil
		case "**":
			if b.i < 0 {
				return floatVal(math.Pow(float64(a.i), float64(b.i))), nil
			}
			// Square-and-multiply: the same wrapped product as b.i
			// multiplications, without b.i iterations outside the budget.
			r, base := int64(1), a.i
			for e := b.i; e > 0; e >>= 1 {
				if e&1 == 1 {
					r *= base
				}
				base *= base
			}
			return intVal(r), nil
		}
	}
	lf, rf := a.asFloat(), b.asFloat()
	switch op {
	case "+":
		return floatVal(lf + rf), nil
	case "-":
		return floatVal(lf - rf), nil
	case "*":
		return floatVal(lf * rf), nil
	case "/":
		if rf == 0 {
			return value{}, errorFlow("expr: divide by zero")
		}
		return floatVal(lf / rf), nil
	case "%":
		return value{}, errorFlow("expr: %% requires integer operands")
	case "**":
		return floatVal(math.Pow(lf, rf)), nil
	}
	return value{}, errorFlow("expr: unknown operator %q", op)
}

func applyFunc(name string, args []value) (value, *flow) {
	need := func(n int) *flow {
		if len(args) != n {
			return errorFlow("expr: %s() takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	numeric := func() *flow {
		for _, a := range args {
			if !a.isNumeric() {
				return errorFlow("expr: %s() requires numeric arguments", name)
			}
		}
		return nil
	}
	switch name {
	case "abs":
		if f := need(1); f != nil {
			return value{}, f
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		if args[0].kind == vInt {
			if args[0].i < 0 {
				return intVal(-args[0].i), nil
			}
			return args[0], nil
		}
		return floatVal(math.Abs(args[0].f)), nil
	case "int":
		if f := need(1); f != nil {
			return value{}, f
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		return intVal(int64(args[0].asFloat())), nil
	case "double":
		if f := need(1); f != nil {
			return value{}, f
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		return floatVal(args[0].asFloat()), nil
	case "round":
		if f := need(1); f != nil {
			return value{}, f
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		return intVal(int64(math.Round(args[0].asFloat()))), nil
	case "sqrt":
		if f := need(1); f != nil {
			return value{}, f
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		return floatVal(math.Sqrt(args[0].asFloat())), nil
	case "min", "max":
		if len(args) == 0 {
			return value{}, errorFlow("expr: %s() needs at least one argument", name)
		}
		if f := numeric(); f != nil {
			return value{}, f
		}
		best := args[0]
		for _, a := range args[1:] {
			if name == "min" && a.asFloat() < best.asFloat() ||
				name == "max" && a.asFloat() > best.asFloat() {
				best = a
			}
		}
		return best, nil
	}
	return value{}, errorFlow("expr: unknown function %q", name)
}
