// Package urn implements the Uniform Resource Names that identify every
// Rover object.
//
// The paper names objects with URNs [Sollins & Masinter, RFC 1737] so that
// an object's identity is independent of the server currently holding it:
// "we can move resources based upon varying requirements (e.g., server load
// or availability) without exposing such changes to end users."
//
// A Rover URN has the form
//
//	urn:rover:<authority>/<path>
//
// where <authority> names the home authority (e.g. a mail domain or web
// host) and <path> names the object within it. Both components are
// restricted to a conservative character set so URNs can be embedded in
// logs, file names, and rscript source without quoting.
package urn

import (
	"errors"
	"fmt"
	"strings"
)

// Prefix is the scheme prefix of every Rover URN.
const Prefix = "urn:rover:"

// MaxLen bounds a URN's total length.
const MaxLen = 1024

// Errors returned by Parse.
var (
	ErrBadPrefix    = errors.New("urn: missing urn:rover: prefix")
	ErrNoAuthority  = errors.New("urn: empty authority")
	ErrNoPath       = errors.New("urn: empty path")
	ErrBadCharacter = errors.New("urn: invalid character")
	ErrTooLong      = errors.New("urn: exceeds maximum length")
)

// A URN names a Rover object. The zero URN is invalid.
type URN struct {
	// Authority is the naming authority, typically a DNS-style name.
	Authority string
	// Path locates the object within the authority's namespace. It may
	// contain '/' separators but never begins or ends with one.
	Path string
}

// New constructs a URN and validates it.
func New(authority, path string) (URN, error) {
	u := URN{Authority: authority, Path: path}
	if err := u.Validate(); err != nil {
		return URN{}, err
	}
	return u, nil
}

// Parse decodes a string of the form urn:rover:<authority>/<path>.
func Parse(s string) (URN, error) {
	if len(s) > MaxLen {
		return URN{}, ErrTooLong
	}
	if !strings.HasPrefix(s, Prefix) {
		return URN{}, fmt.Errorf("%w: %q", ErrBadPrefix, clip(s))
	}
	rest := s[len(Prefix):]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return URN{}, fmt.Errorf("%w: %q", ErrNoPath, clip(s))
	}
	u := URN{Authority: rest[:slash], Path: rest[slash+1:]}
	if err := u.Validate(); err != nil {
		return URN{}, err
	}
	return u, nil
}

// MustParse is Parse for statically known-good strings; it panics on error.
func MustParse(s string) URN {
	u, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return u
}

// Validate checks the URN's components against the allowed grammar.
func (u URN) Validate() error {
	if u.Authority == "" {
		return ErrNoAuthority
	}
	if u.Path == "" {
		return ErrNoPath
	}
	if len(Prefix)+len(u.Authority)+1+len(u.Path) > MaxLen {
		return ErrTooLong
	}
	if !validComponent(u.Authority, false) {
		return fmt.Errorf("%w in authority %q", ErrBadCharacter, clip(u.Authority))
	}
	if !validComponent(u.Path, true) {
		return fmt.Errorf("%w in path %q", ErrBadCharacter, clip(u.Path))
	}
	return nil
}

// IsZero reports whether u is the zero URN.
func (u URN) IsZero() bool { return u.Authority == "" && u.Path == "" }

// String returns the canonical urn:rover:... form.
func (u URN) String() string {
	return Prefix + u.Authority + "/" + u.Path
}

// Less orders URNs lexicographically by (Authority, Path). The prefetch
// queue and the server store use this for deterministic iteration.
func (u URN) Less(v URN) bool {
	if u.Authority != v.Authority {
		return u.Authority < v.Authority
	}
	return u.Path < v.Path
}

// Compare returns -1, 0, or +1 per the Less ordering.
func (u URN) Compare(v URN) int {
	switch {
	case u == v:
		return 0
	case u.Less(v):
		return -1
	default:
		return 1
	}
}

// Child returns a URN for a sub-object: the receiver's path extended with
// "/elem". Applications use this to build collections (a mail folder's
// messages, a calendar's days).
func (u URN) Child(elem string) (URN, error) {
	return New(u.Authority, u.Path+"/"+elem)
}

// Dir returns the URN one path level up, and true, or the zero URN and
// false if the path has a single element.
func (u URN) Dir() (URN, bool) {
	i := strings.LastIndexByte(u.Path, '/')
	if i < 0 {
		return URN{}, false
	}
	return URN{Authority: u.Authority, Path: u.Path[:i]}, true
}

// HasPrefix reports whether u names an object at or below p's path within
// the same authority.
func (u URN) HasPrefix(p URN) bool {
	if u.Authority != p.Authority {
		return false
	}
	if u.Path == p.Path {
		return true
	}
	return strings.HasPrefix(u.Path, p.Path+"/")
}

// validComponent reports whether s contains only allowed bytes. Paths may
// additionally contain '/' separators, but not leading, trailing, or
// doubled ones.
func validComponent(s string, allowSlash bool) bool {
	prev := byte('/')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '~' || c == '@' ||
			c == '+' || c == '=' || c == ':':
		case c == '/' && allowSlash:
			if prev == '/' {
				return false // leading or doubled slash
			}
		default:
			return false
		}
		prev = c
	}
	return prev != '/' // no trailing slash
}

func clip(s string) string {
	if len(s) > 64 {
		return s[:64] + "..."
	}
	return s
}
