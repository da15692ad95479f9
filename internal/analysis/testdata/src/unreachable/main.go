// Package main is the unreachable fixture: every Good* function is reached
// from main, init or a package-level var along one kind of edge, and every
// Bad* function is dead or wrongly waived.
package main

import (
	"errors"
	"fmt"

	"fixture/unreachable/lib"
)

// A function value in a table.
var handlers = map[string]func() int{"table": GoodInTable}

func GoodInTable() int { return 1 }

// A var-initialiser reference.
var initial = GoodVarInit()

func GoodVarInit() int { return 2 }

// An init registration.
var registry []func() int

func init() { registry = append(registry, GoodRegistered) }

func GoodRegistered() int { return 3 }

// Dispatch through an interface declared in the load.
type Shape interface{ Area() float64 }

type Square struct{ side float64 }

func (s Square) Area() float64 { return s.side * s.side }

// A dead method: no interface has its name, and nothing calls it.
func (s Square) BadDeadMethod() float64 { return 4 * s.side }

// Dispatch through fmt.Stringer and error.
type Celsius float64

func (c Celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

type GoodError struct{}

func (GoodError) Error() string { return "good" }

// A method value.
type Counter struct{ n int }

func (c *Counter) GoodIncrement() { c.n++ }

// A generic function and a generic type, instantiated.
func GoodMap[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

type Box[T any] struct{ v T }

func (b Box[T]) GoodGet() T { return b.v }

// A waived test helper that nothing reaches: not reported.
//
//gnnvet:allow unreachable -- TestFixtureHelper
func GoodWaivedHelper() int { return 5 }

// A waived helper that main reaches: reported at the call in main.
//
//gnnvet:allow unreachable -- TestFixtureHelper
func BadWaivedButCalled() int { return 6 }

// A dead function.
func BadDeadFunc() int { return 7 }

func main() {
	var s Shape = Square{side: 2}
	var err error = GoodError{}
	c := &Counter{}
	inc := c.GoodIncrement
	inc()
	b := Box[int]{v: 1}
	fmt.Println(s.Area(), Celsius(21), errors.Unwrap(err), handlers["table"](), initial, len(registry),
		GoodMap([]int{1}, func(x int) int { return x + 1 }), b.GoodGet(), lib.GoodExported(), BadWaivedButCalled())
}
