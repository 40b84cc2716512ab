package rscript

import (
	"fmt"
	"strings"
	"sync"
)

// The rscript grammar is a faithful subset of Tcl's dodekalogue:
//
//   - A script is a sequence of commands separated by newlines or ';'.
//   - A command is a sequence of words.
//   - A word is bare, "double quoted" (with substitution), or {braced}
//     (verbatim, nestable).
//   - '$name' and '${name}' substitute variables; '[script]' substitutes
//     the result of evaluating a nested script; '\x' escapes.
//   - '#' at a command position starts a comment through end of line.
//
// Scripts parse to a small AST that the evaluator runs. The AST is also
// the compiled form (see DESIGN.md §14 "Compiled forms"): a command whose
// first word names a builtin carries that builtin. Sources, and the bodies
// and expressions commands run, are cached by string (cache.go).

// Script is a parsed rscript program. A Script, and everything reachable
// from it, is read-only once Parse returns except for its class, which is
// computed on first use and published once: cached scripts are run by many
// interpreters at once, so neither the evaluator nor a caller may modify
// one.
type Script struct {
	Cmds []*Cmd

	classOnce sync.Once
	class     *class // see loadClass
}

// Cmd is one command: a sequence of words, the first naming the command.
type Cmd struct {
	Words []*Word
	Line  int
	// builtin is the builtin the first word names when that word is
	// literal, nil otherwise. It runs unless the interpreter shadows it.
	builtin *builtin
}

// Word is a sequence of parts concatenated after substitution.
type Word struct {
	Parts []Part
}

// literal returns the word's value if no substitution contributes to it.
func (w *Word) literal() (string, bool) {
	if len(w.Parts) == 1 {
		if lit, ok := w.Parts[0].(LitPart); ok {
			return string(lit), true
		}
	}
	return "", false
}

// Part is a component of a word.
type Part interface{ part() }

// LitPart is literal text.
type LitPart string

// VarPart is a $variable reference by name.
type VarPart string

// CmdPart is a [bracketed] command substitution.
type CmdPart struct{ Script *Script }

func (LitPart) part() {}
func (VarPart) part() {}
func (CmdPart) part() {}

// ParseError reports a script syntax error with a line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rscript: parse error at line %d: %s", e.Line, e.Msg)
}

type parser struct {
	src  string
	pos  int
	line int
}

// Parse parses an rscript source string.
func Parse(src string) (*Script, error) {
	p := &parser{src: src, line: 1}
	s, err := p.parseScript(0)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.src) {
		return nil, &ParseError{Line: p.line, Msg: fmt.Sprintf("unexpected %q", p.src[p.pos])}
	}
	return s, nil
}

// parseScript parses commands until EOF or, when terminator is ']', until
// the matching close bracket (which it consumes).
func (p *parser) parseScript(terminator byte) (*Script, error) {
	s := &Script{}
	for {
		p.skipCommandSeparators()
		if p.pos >= len(p.src) {
			if terminator != 0 {
				return nil, &ParseError{Line: p.line, Msg: "missing close bracket"}
			}
			return s, nil
		}
		if terminator != 0 && p.src[p.pos] == terminator {
			p.pos++
			return s, nil
		}
		if p.src[p.pos] == '#' {
			p.skipComment()
			continue
		}
		cmd, err := p.parseCommand(terminator)
		if err != nil {
			return nil, err
		}
		if len(cmd.Words) > 0 {
			s.Cmds = append(s.Cmds, cmd)
		}
		// parseCommand stops before the terminator or separator; loop.
		if terminator != 0 && p.pos < len(p.src) && p.src[p.pos] == terminator {
			p.pos++
			return s, nil
		}
	}
}

func (p *parser) skipCommandSeparators() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case ' ', '\t', '\r', ';':
			p.pos++
		case '\n':
			p.line++
			p.pos++
		case '\\':
			// Backslash-newline is a continuation; at command position it
			// is just skippable whitespace.
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.line++
				p.pos += 2
			} else {
				return
			}
		default:
			return
		}
	}
}

func (p *parser) skipComment() {
	for p.pos < len(p.src) && p.src[p.pos] != '\n' {
		// A backslash-newline continues a comment, as in Tcl.
		if p.src[p.pos] == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.line++
			p.pos += 2
			continue
		}
		p.pos++
	}
}

// parseCommand parses words until a newline, ';', EOF, or the terminator.
func (p *parser) parseCommand(terminator byte) (*Cmd, error) {
	cmd := &Cmd{Line: p.line}
	for {
		p.skipInlineSpace()
		if p.pos >= len(p.src) {
			return cmd, nil
		}
		c := p.src[p.pos]
		if c == '\n' || c == ';' {
			return cmd, nil
		}
		if terminator != 0 && c == terminator {
			return cmd, nil
		}
		w, err := p.parseWord(terminator)
		if err != nil {
			return nil, err
		}
		if len(cmd.Words) == 0 {
			if name, ok := w.literal(); ok {
				cmd.builtin = builtins[name]
			}
		}
		cmd.Words = append(cmd.Words, w)
	}
}

func (p *parser) skipInlineSpace() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ' ' || c == '\t' || c == '\r' {
			p.pos++
			continue
		}
		if c == '\\' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
			p.line++
			p.pos += 2
			continue
		}
		return
	}
}

func (p *parser) parseWord(terminator byte) (*Word, error) {
	switch p.src[p.pos] {
	case '{':
		return p.parseBracedWord()
	case '"':
		return p.parseQuotedWord()
	default:
		return p.parseBareWord(terminator)
	}
}

// parseBracedWord consumes {...} with nesting; contents are verbatim, so
// the word is a slice of the source.
func (p *parser) parseBracedWord() (*Word, error) {
	startLine := p.line
	p.pos++ // consume '{'
	start := p.pos
	depth := 1
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '\\':
			if p.pos+1 < len(p.src) && p.src[p.pos+1] == '\n' {
				p.line++
			}
			p.pos++
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				lit := p.src[start:p.pos]
				p.pos++
				if p.pos < len(p.src) && !isWordEnd(p.src[p.pos]) {
					return nil, &ParseError{Line: p.line, Msg: "extra characters after close brace"}
				}
				return &Word{Parts: []Part{LitPart(lit)}}, nil
			}
		case '\n':
			p.line++
		}
		p.pos++
	}
	return nil, &ParseError{Line: startLine, Msg: "missing close brace"}
}

func isWordEnd(c byte) bool {
	switch c {
	case ' ', '\t', '\r', '\n', ';', ']':
		return true
	}
	return false
}

// parseQuotedWord consumes "..." with substitutions.
func (p *parser) parseQuotedWord() (*Word, error) {
	startLine := p.line
	p.pos++ // consume '"'
	w, err := p.parseSubstituted(func(c byte) bool { return c == '"' }, true)
	if err != nil {
		return nil, err
	}
	if p.pos >= len(p.src) {
		return nil, &ParseError{Line: startLine, Msg: "missing close quote"}
	}
	p.pos++ // consume closing '"'
	if p.pos < len(p.src) && !isWordEnd(p.src[p.pos]) {
		return nil, &ParseError{Line: p.line, Msg: "extra characters after close quote"}
	}
	return w, nil
}

// parseBareWord consumes an unquoted word with substitutions.
func (p *parser) parseBareWord(terminator byte) (*Word, error) {
	return p.parseSubstituted(func(c byte) bool {
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == ';' {
			return true
		}
		return terminator != 0 && c == terminator
	}, false)
}

// parseSubstituted scans until stop(c), building parts for literals,
// variable references, and command substitutions. In quoted mode,
// newlines are allowed in the word.
func (p *parser) parseSubstituted(stop func(byte) bool, quoted bool) (*Word, error) {
	w := &Word{}
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			w.Parts = append(w.Parts, LitPart(lit.String()))
			lit.Reset()
		}
	}
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if !quoted && stop(c) {
			break
		}
		if quoted && c == '"' {
			break
		}
		switch c {
		case '\\':
			if p.pos+1 >= len(p.src) {
				lit.WriteByte('\\')
				p.pos++
				continue
			}
			if p.src[p.pos+1] == '\n' {
				p.line++
				lit.WriteByte(' ')
				p.pos += 2
				continue
			}
			val, n := scanEscape(p.src[p.pos:])
			lit.WriteString(val)
			p.pos += n
		case '$':
			name, ok := p.scanVarName()
			if !ok {
				lit.WriteByte('$')
				p.pos++
				continue
			}
			flush()
			w.Parts = append(w.Parts, VarPart(name))
		case '[':
			p.pos++ // consume '['
			inner, err := p.parseScript(']')
			if err != nil {
				return nil, err
			}
			flush()
			w.Parts = append(w.Parts, CmdPart{Script: inner})
		case '\n':
			if !quoted {
				// stop() should have caught this for bare words
				p.line++
				lit.WriteByte(c)
				p.pos++
				continue
			}
			p.line++
			lit.WriteByte(c)
			p.pos++
		default:
			lit.WriteByte(c)
			p.pos++
		}
	}
	flush()
	if len(w.Parts) == 0 {
		w.Parts = append(w.Parts, LitPart(""))
	}
	return w, nil
}

// scanVarName consumes "$name" or "${name}" starting at '$'. It reports
// ok=false (without consuming) when '$' is not followed by a name.
func (p *parser) scanVarName() (string, bool) {
	start := p.pos
	p.pos++ // consume '$'
	if p.pos >= len(p.src) {
		p.pos = start
		return "", false
	}
	if p.src[p.pos] == '{' {
		end := strings.IndexByte(p.src[p.pos+1:], '}')
		if end < 0 {
			p.pos = start
			return "", false
		}
		name := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return name, true
	}
	j := p.pos
	for j < len(p.src) && isVarChar(p.src[j]) {
		j++
	}
	if j == p.pos {
		p.pos = start
		return "", false
	}
	name := p.src[p.pos:j]
	p.pos = j
	return name, true
}

func isVarChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '_' || c == ':'
}

// scanEscape decodes a backslash escape at the start of s (s[0] == '\\'),
// returning the substituted value and the number of bytes consumed. It
// supports Tcl's \xHH (1–2 hex digits) and \uHHHH (1–4 hex digits) forms
// in addition to the single-character escapes.
func scanEscape(s string) (string, int) {
	if len(s) < 2 {
		return "\\", 1
	}
	switch s[1] {
	case 'x':
		v, digits := scanHex(s[2:], 2)
		if digits == 0 {
			return "x", 2
		}
		return string([]byte{byte(v)}), 2 + digits
	case 'u':
		v, digits := scanHex(s[2:], 4)
		if digits == 0 {
			return "u", 2
		}
		return string(rune(v)), 2 + digits
	default:
		return escapeValue(s[1]), 2
	}
}

// scanHex reads up to max hex digits from s.
func scanHex(s string, max int) (value uint32, digits int) {
	for digits < max && digits < len(s) {
		c := s[digits]
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint32(c-'A') + 10
		default:
			return value, digits
		}
		value = value<<4 | d
		digits++
	}
	return value, digits
}

// escapeValue maps a single-character backslash escape to its value.
func escapeValue(c byte) string {
	switch c {
	case 'n':
		return "\n"
	case 't':
		return "\t"
	case 'r':
		return "\r"
	case 'a':
		return "\a"
	case 'b':
		return "\b"
	case 'f':
		return "\f"
	case 'v':
		return "\v"
	case '0':
		return "\x00"
	default:
		return string(c)
	}
}
