// Package classify maps errors from the compile/run surfaces to failure
// classes shared by every front door: chowcc turns the class into a
// process exit code, the chowd daemon turns the same class into an HTTP
// status. Keeping the mapping in one place (below chow88 in the import
// graph, so internal packages can use it too) means a script driving
// chowcc and a client driving chowd triage the same failure the same way.
package classify

import (
	"context"
	"errors"

	"chow88/internal/codegen"
	"chow88/internal/front"
	"chow88/internal/inline"
	"chow88/internal/mach"
	"chow88/internal/pipeline"
	"chow88/internal/sim"
)

// Exit codes, one per failure class (chowcc exits with these directly).
const (
	ExitOK        = 0
	ExitInternal  = 1
	ExitUsage     = 2
	ExitParse     = 3
	ExitSema      = 4
	ExitValidate  = 5
	ExitCodegen   = 6
	ExitTrap      = 7
	ExitBudget    = 8
	ExitDeadline  = 9
	ExitBadEngine = 10
	ExitBadBudget = 11
	ExitBadConv   = 12
)

// Error maps an error from Compile/Run (or any of their variants) to its
// failure class: the chowcc exit code and the label of the one-line
// diagnostic. Unrecognized errors are internal errors.
func Error(err error) (code int, label string) {
	var se *front.StageError
	var ve *pipeline.ValidationError
	var fe *codegen.FuncError
	var trap *sim.Trap
	var ce *mach.ConfigError
	var re *pipeline.RequestError
	switch {
	case errors.As(err, &re):
		return ExitUsage, "usage error"
	case errors.As(err, &ce):
		return ExitBadConv, "bad convention"
	case errors.As(err, &se):
		switch {
		case se.Recovered:
			return ExitInternal, "internal error"
		case se.Stage == "parse":
			return ExitParse, "parse error"
		case se.Stage == "sema":
			return ExitSema, "semantic error"
		default: // lower/opt failures are compiler bugs
			return ExitInternal, "internal error"
		}
	case errors.As(err, &ve):
		return ExitValidate, "linkage violation"
	case errors.As(err, &fe):
		return ExitCodegen, "codegen error"
	case errors.As(err, &trap):
		return ExitTrap, "machine trap"
	case errors.Is(err, sim.ErrLimit):
		return ExitBudget, "instruction budget"
	case errors.Is(err, sim.ErrDeadline),
		errors.Is(err, context.DeadlineExceeded):
		// sim.ErrDeadline is the simulator's own wall clock;
		// context.DeadlineExceeded arrives via pipeline.ErrCanceled when a
		// caller's deadline (chowd's per-request budget) expired mid-compile.
		return ExitDeadline, "deadline"
	case errors.Is(err, sim.ErrBadEngine):
		return ExitBadEngine, "bad engine"
	case errors.Is(err, inline.ErrBadBudget):
		return ExitBadBudget, "bad inline budget"
	}
	return ExitInternal, "internal error"
}

// HTTPStatus maps a failure class (an Exit* code) to the HTTP status the
// chowd daemon answers with. The classes partition cleanly: the program
// was unprocessable (422), the request itself was bad (400), the work blew
// its deadline (504), or the compiler broke (500). Admission-level
// statuses (413 oversized, 429 queue full, 503 draining) never reach the
// classifier — they are decided before a unit of work exists.
func HTTPStatus(code int) int {
	switch code {
	case ExitOK:
		return 200
	case ExitParse, ExitSema, ExitValidate, ExitTrap, ExitBudget:
		return 422
	case ExitUsage, ExitBadEngine, ExitBadBudget, ExitBadConv:
		return 400
	case ExitDeadline:
		return 504
	}
	return 500 // ExitInternal, ExitCodegen: the compiler's fault
}
