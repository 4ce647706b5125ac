// Command catcam-lint is the CATCAM static-analysis suite. It proves,
// at compile time, the invariants the simulator's results rest on:
//
//	hotpath     //catcam:hotpath functions (and everything they call
//	            in-module) perform no allocation
//	lockcheck   //catcam:guarded-by fields are only touched under
//	            their mutex, no lock is re-acquired while held, and the
//	            module-wide acquisition order of annotated mutexes
//	            stays acyclic
//	atomiccheck locations manipulated with sync/atomic are never
//	            accessed with plain loads/stores, and typed atomics
//	            are never copied
//	cyclecheck  mutations of //catcam:cycle-state storage always
//	            account modeled cycles
//	epochcheck  //catcam:snapshot types published through
//	            atomic.Pointer are transitively write-dead after the
//	            store; constructors only store fresh or snapshot-typed
//	            memory
//	ringcheck   //catcam:ring-producer / //catcam:ring-consumer roles
//	            own their SPSC cursor exclusively, callers carry the
//	            right role, and each role has one goroutine spawn site
//	            per package
//	poolcheck   //catcam:scratch pool memory never escapes into
//	            globals, non-scratch objects, or exported returns
//	directives  every //catcam: annotation parses
//
// Usage:
//
//	catcam-lint [-tags t1,t2] [-json] packages...
//
// It loads the module from source itself, through `go list`. Every
// matched package is analyzed together with its _test.go files,
// external test packages included; packages
// outside the catcam module are only imported, never analyzed, since
// the suite's invariants are about this codebase. Findings print as
// file:line:col: analyzer: message, with file names relative to the
// working directory. Exit status: 0 clean, 2 findings, 1 error.
package main

import (
	"catcam/internal/analysis"
	"catcam/internal/analysis/framework"
)

func main() {
	framework.Main(analysis.Analyzers)
}
