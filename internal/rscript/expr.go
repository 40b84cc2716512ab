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
// The source is scanned once into tokens (compileExpr) and the result is
// cached by source; $var and [cmd] operands stay symbolic in the tokens
// and are resolved each time the expression is evaluated.
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
	tokVar // $name, read when the expression is evaluated
	tokCmd // [script], run when the expression is evaluated
)

type exprTok struct {
	kind   exprTokKind
	val    value   // tokValue
	op     string  // tokOp
	id     string  // tokIdent, tokVar
	script *Script // tokCmd
	slot   int     // tokVar, tokCmd: index of the operand's value at evaluation
}

// exprProg is the compiled form of one expr source: its tokens, with $var
// and [cmd] operands left symbolic. Like a *Script it is read-only once
// compiled and shared through the cache. A lexical error does not discard
// the tokens before it: evaluation substitutes those operands first, as a
// single scan-and-substitute pass would, and then reports lexErr.
type exprProg struct {
	toks   []exprTok
	nsubst int    // number of tokVar/tokCmd tokens
	lexErr string // message of the error that ended the scan, or ""
}

// compileExpr scans src into tokens.
func compileExpr(src string) *exprProg {
	prog := &exprProg{}
	fail := func(format string, args ...any) *exprProg {
		prog.lexErr = fmt.Sprintf(format, args...)
		return prog
	}
	operand := func(t exprTok) {
		t.slot = prog.nsubst
		prog.nsubst++
		prog.toks = append(prog.toks, t)
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
					return fail("expr: bad number %q", lit)
				}
				prog.toks = append(prog.toks, exprTok{kind: tokValue, val: floatVal(f)})
			} else {
				v, err := strconv.ParseInt(lit, 0, 64)
				if err != nil {
					return fail("expr: bad number %q", lit)
				}
				prog.toks = append(prog.toks, exprTok{kind: tokValue, val: intVal(v)})
			}
			i = j
		case c == '$':
			p := &parser{src: src, pos: i, line: 1}
			name, ok := p.scanVarName()
			if !ok {
				return fail("expr: bad variable reference")
			}
			i = p.pos
			operand(exprTok{kind: tokVar, id: name})
		case c == '[':
			p := &parser{src: src, pos: i + 1, line: 1}
			inner, err := p.parseScript(']')
			if err != nil {
				return fail("expr: %v", err)
			}
			i = p.pos
			operand(exprTok{kind: tokCmd, script: inner})
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
				return fail("expr: missing close quote")
			}
			prog.toks = append(prog.toks, exprTok{kind: tokValue, val: strVal(sb.String())})
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
				return fail("expr: missing close brace")
			}
			prog.toks = append(prog.toks, exprTok{kind: tokValue, val: strVal(src[i+1 : j-1])})
			i = j
		case c == '(':
			prog.toks = append(prog.toks, exprTok{kind: tokLParen})
			i++
		case c == ')':
			prog.toks = append(prog.toks, exprTok{kind: tokRParen})
			i++
		case c == ',':
			prog.toks = append(prog.toks, exprTok{kind: tokComma})
			i++
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(src[j]) || src[j] >= '0' && src[j] <= '9') {
				j++
			}
			prog.toks = append(prog.toks, exprTok{kind: tokIdent, id: src[i:j]})
			i = j
		default:
			for _, op := range exprOps {
				if strings.HasPrefix(src[i:], op) {
					prog.toks = append(prog.toks, exprTok{kind: tokOp, op: op})
					i += len(op)
					goto next
				}
			}
			return fail("expr: unexpected character %q", string(c))
		next:
		}
	}
	return prog
}

func isAlpha(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

// exprOps lists operators longest-first so the tokenizer matches greedily.
var exprOps = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "**",
	"+", "-", "*", "/", "%", "<", ">", "!", "~", "&", "|", "^",
}

type exprParser struct {
	toks []exprTok
	vals []value // substituted operands, indexed by exprTok.slot
	pos  int
}

// substitute resolves the program's $var and [cmd] operands in source
// order against the interpreter's current state.
func (ip *Interp) substitute(prog *exprProg, vals []value) *flow {
	for i := range prog.toks {
		t := &prog.toks[i]
		switch t.kind {
		case tokVar:
			v, found := ip.lookupVar(t.id)
			if !found {
				return errorFlow("can't read %q: no such variable", t.id)
			}
			vals[t.slot] = classify(v)
		case tokCmd:
			v, f := ip.evalScript(t.script)
			if f != nil {
				if f.kind != flowReturn {
					return f
				}
				v = f.val
			}
			vals[t.slot] = classify(v)
		}
	}
	if prog.lexErr != "" {
		return &flow{kind: flowError, val: prog.lexErr}
	}
	return nil
}

// evalExpr evaluates an expression string with substitution.
func (ip *Interp) evalExpr(src string) (value, *flow) {
	prog := compileExprCached(src)
	var few [4]value
	vals := few[:]
	if prog.nsubst > len(few) {
		vals = make([]value, prog.nsubst)
	}
	if f := ip.substitute(prog, vals); f != nil {
		return value{}, f
	}
	p := &exprParser{toks: prog.toks, vals: vals}
	v, flw := p.parseOr()
	if flw != nil {
		return value{}, flw
	}
	if p.pos != len(p.toks) {
		return value{}, errorFlow("expr: trailing tokens in %q", src)
	}
	return v, nil
}

// Truthy evaluates src as a boolean condition.
func (ip *Interp) truthy(src string) (bool, *flow) {
	v, f := ip.evalExpr(src)
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

func (p *exprParser) peek() *exprTok {
	if p.pos < len(p.toks) {
		return &p.toks[p.pos]
	}
	return nil
}

func (p *exprParser) acceptOp(ops ...string) (string, bool) {
	t := p.peek()
	if t == nil || t.kind != tokOp {
		return "", false
	}
	for _, op := range ops {
		if t.op == op {
			p.pos++
			return op, true
		}
	}
	return "", false
}

func (p *exprParser) acceptIdent(ids ...string) (string, bool) {
	t := p.peek()
	if t == nil || t.kind != tokIdent {
		return "", false
	}
	for _, id := range ids {
		if t.id == id {
			p.pos++
			return id, true
		}
	}
	return "", false
}

func (p *exprParser) parseOr() (value, *flow) {
	left, f := p.parseAnd()
	if f != nil {
		return value{}, f
	}
	for {
		if _, ok := p.acceptOp("||"); !ok {
			return left, nil
		}
		right, f := p.parseAnd()
		if f != nil {
			return value{}, f
		}
		lb, f := valueTruthy(left)
		if f != nil {
			return value{}, f
		}
		if lb {
			left = boolVal(true)
			continue
		}
		rb, f := valueTruthy(right)
		if f != nil {
			return value{}, f
		}
		left = boolVal(rb)
	}
}

func (p *exprParser) parseAnd() (value, *flow) {
	left, f := p.parseBitOr()
	if f != nil {
		return value{}, f
	}
	for {
		if _, ok := p.acceptOp("&&"); !ok {
			return left, nil
		}
		right, f := p.parseBitOr()
		if f != nil {
			return value{}, f
		}
		lb, f := valueTruthy(left)
		if f != nil {
			return value{}, f
		}
		if !lb {
			left = boolVal(false)
			continue
		}
		rb, f := valueTruthy(right)
		if f != nil {
			return value{}, f
		}
		left = boolVal(rb)
	}
}

func (p *exprParser) parseBitOr() (value, *flow) {
	return p.binaryInt([]string{"|"}, p.parseBitXor, func(a, b int64) (int64, *flow) { return a | b, nil })
}

func (p *exprParser) parseBitXor() (value, *flow) {
	return p.binaryInt([]string{"^"}, p.parseBitAnd, func(a, b int64) (int64, *flow) { return a ^ b, nil })
}

func (p *exprParser) parseBitAnd() (value, *flow) {
	return p.binaryInt([]string{"&"}, p.parseEquality, func(a, b int64) (int64, *flow) { return a & b, nil })
}

func (p *exprParser) binaryInt(ops []string, sub func() (value, *flow), apply func(a, b int64) (int64, *flow)) (value, *flow) {
	left, f := sub()
	if f != nil {
		return value{}, f
	}
	for {
		op, ok := p.acceptOp(ops...)
		if !ok {
			return left, nil
		}
		right, f := sub()
		if f != nil {
			return value{}, f
		}
		if left.kind != vInt || right.kind != vInt {
			return value{}, errorFlow("expr: operator %q requires integer operands", op)
		}
		r, f := apply(left.i, right.i)
		if f != nil {
			return value{}, f
		}
		left = intVal(r)
	}
}

func (p *exprParser) parseEquality() (value, *flow) {
	left, f := p.parseRelational()
	if f != nil {
		return value{}, f
	}
	for {
		if op, ok := p.acceptOp("==", "!="); ok {
			right, f := p.parseRelational()
			if f != nil {
				return value{}, f
			}
			eq := valuesEqual(left, right)
			if op == "!=" {
				eq = !eq
			}
			left = boolVal(eq)
			continue
		}
		if id, ok := p.acceptIdent("eq", "ne"); ok {
			right, f := p.parseRelational()
			if f != nil {
				return value{}, f
			}
			eq := left.String() == right.String()
			if id == "ne" {
				eq = !eq
			}
			left = boolVal(eq)
			continue
		}
		return left, nil
	}
}

func valuesEqual(a, b value) bool {
	if a.isNumeric() && b.isNumeric() {
		if a.kind == vInt && b.kind == vInt {
			return a.i == b.i
		}
		return a.asFloat() == b.asFloat()
	}
	// Tcl coerces: "5" == 5 is true. classify() already promoted numeric
	// strings at tokenization, so remaining strings are non-numeric.
	return a.String() == b.String()
}

func (p *exprParser) parseRelational() (value, *flow) {
	left, f := p.parseShift()
	if f != nil {
		return value{}, f
	}
	for {
		op, ok := p.acceptOp("<", ">", "<=", ">=")
		if !ok {
			return left, nil
		}
		right, f := p.parseShift()
		if f != nil {
			return value{}, f
		}
		var cmp int
		if left.isNumeric() && right.isNumeric() {
			lf, rf := left.asFloat(), right.asFloat()
			switch {
			case lf < rf:
				cmp = -1
			case lf > rf:
				cmp = 1
			}
		} else {
			cmp = strings.Compare(left.String(), right.String())
		}
		var r bool
		switch op {
		case "<":
			r = cmp < 0
		case ">":
			r = cmp > 0
		case "<=":
			r = cmp <= 0
		case ">=":
			r = cmp >= 0
		}
		left = boolVal(r)
	}
}

func (p *exprParser) parseShift() (value, *flow) {
	return p.binaryIntOp([]string{"<<", ">>"}, p.parseAdditive, func(op string, a, b int64) (int64, *flow) {
		if b < 0 || b > 63 {
			return 0, errorFlow("expr: shift count %d out of range", b)
		}
		if op == "<<" {
			return a << uint(b), nil
		}
		return a >> uint(b), nil
	})
}

// binaryIntOp is binaryInt for operator families that need the matched
// operator to compute the result.
func (p *exprParser) binaryIntOp(ops []string, sub func() (value, *flow), apply func(op string, a, b int64) (int64, *flow)) (value, *flow) {
	left, f := sub()
	if f != nil {
		return value{}, f
	}
	for {
		op, ok := p.acceptOp(ops...)
		if !ok {
			return left, nil
		}
		right, f := sub()
		if f != nil {
			return value{}, f
		}
		if left.kind != vInt || right.kind != vInt {
			return value{}, errorFlow("expr: operator %q requires integer operands", op)
		}
		r, f := apply(op, left.i, right.i)
		if f != nil {
			return value{}, f
		}
		left = intVal(r)
	}
}

func (p *exprParser) parseAdditive() (value, *flow) {
	left, f := p.parseMultiplicative()
	if f != nil {
		return value{}, f
	}
	for {
		op, ok := p.acceptOp("+", "-")
		if !ok {
			return left, nil
		}
		right, f := p.parseMultiplicative()
		if f != nil {
			return value{}, f
		}
		left, f = arith(op, left, right)
		if f != nil {
			return value{}, f
		}
	}
}

func (p *exprParser) parseMultiplicative() (value, *flow) {
	left, f := p.parseUnary()
	if f != nil {
		return value{}, f
	}
	for {
		op, ok := p.acceptOp("*", "/", "%", "**")
		if !ok {
			return left, nil
		}
		right, f := p.parseUnary()
		if f != nil {
			return value{}, f
		}
		left, f = arith(op, left, right)
		if f != nil {
			return value{}, f
		}
	}
}

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

func (p *exprParser) parseUnary() (value, *flow) {
	if op, ok := p.acceptOp("-", "+", "!", "~"); ok {
		v, f := p.parseUnary()
		if f != nil {
			return value{}, f
		}
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
		case "~":
			if v.kind != vInt {
				return value{}, errorFlow("expr: ~ requires an integer")
			}
			return intVal(^v.i), nil
		}
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (value, *flow) {
	t := p.peek()
	if t == nil {
		return value{}, errorFlow("expr: unexpected end of expression")
	}
	switch t.kind {
	case tokValue:
		p.pos++
		return t.val, nil
	case tokVar, tokCmd:
		p.pos++
		return p.vals[t.slot], nil
	case tokLParen:
		p.pos++
		v, f := p.parseOr()
		if f != nil {
			return value{}, f
		}
		if tt := p.peek(); tt == nil || tt.kind != tokRParen {
			return value{}, errorFlow("expr: missing close paren")
		}
		p.pos++
		return v, nil
	case tokIdent:
		id := t.id
		p.pos++
		switch id {
		case "true", "yes", "on":
			return boolVal(true), nil
		case "false", "no", "off":
			return boolVal(false), nil
		}
		// Function call.
		if tt := p.peek(); tt != nil && tt.kind == tokLParen {
			p.pos++
			var args []value
			if tt2 := p.peek(); tt2 != nil && tt2.kind == tokRParen {
				p.pos++
			} else {
				for {
					v, f := p.parseOr()
					if f != nil {
						return value{}, f
					}
					args = append(args, v)
					tt2 := p.peek()
					if tt2 == nil {
						return value{}, errorFlow("expr: missing close paren")
					}
					if tt2.kind == tokComma {
						p.pos++
						continue
					}
					if tt2.kind == tokRParen {
						p.pos++
						break
					}
					return value{}, errorFlow("expr: bad function arguments")
				}
			}
			return applyFunc(id, args)
		}
		return value{}, errorFlow("expr: bare word %q (quote strings)", id)
	}
	return value{}, errorFlow("expr: unexpected token")
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
