// Package directives implements the catcam-lint hygiene analyzer: a
// //catcam:... comment that does not parse (unknown verb, or an allow
// without a category and quoted reason) is itself an error. Without
// this check a typo like //catcam:alow silently disables the escape
// hatch it was meant to open — or worse, silently fails to open it
// while reading as though it did.
package directives

import (
	"strings"

	"catcam/internal/analysis/framework"
)

// Analyzer is the directives analyzer.
var Analyzer = &framework.Analyzer{
	Name: "directives",
	Doc:  "every //catcam: annotation must parse: known verb, and allow must carry a category and a quoted reason",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, c := range framework.MalformedDirectives(pass.Files) {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		pass.Reportf(c.Pos(), "directive", "malformed catcam directive %q: want %s", text, framework.Usage())
	}
	return nil
}
