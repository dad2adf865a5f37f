// Package deadexport exercises the whole-module deadexport check: an
// exported function or method under internal/ is a finding unless some
// non-test file references it, it makes its receiver satisfy an interface,
// or it carries an allow with the reason it stays.
package deadexport

import "fmt"

// Called is referenced below: fine.
func Called() int { return 1 }

// ViaValue is referenced as a function value, not called: still a reference.
func ViaValue() int { return 2 }

var table = []func() int{ViaValue}

// Orphan has no reference anywhere.
func Orphan() int { return Called() + table[0]() }

type shape struct{ side float64 }

// Area is referenced through a method expression.
func (s shape) Area() float64 { return s.side * s.side }

var _ = shape.Area

// Perimeter is nobody's.
func (s shape) Perimeter() float64 { return 4 * s.side }

// String makes shape a fmt.Stringer: reached through the interface.
func (s shape) String() string { return fmt.Sprint(s.side) }

type sizer interface{ Size() int }

// Size makes box satisfy sizer, an interface of this package.
func (b *box) Size() int { return b.n }

type box struct{ n int }

var _ sizer = (*box)(nil)

// Kept stays for the tests of another package, and says so.
//
//itmlint:allow deadexport test support: fixture for a kept name
func Kept() {}

// NoReason is kept without saying why: the allow itself is the finding.
//
//itmlint:allow deadexport
func NoReason() {}

// Stale is referenced, so its allow silences nothing.
//
//itmlint:allow deadexport was dead once
func Stale() {}

var _ = Stale

// unexported code is not this check's business.
func unused() {}
