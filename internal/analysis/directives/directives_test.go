package directives_test

import (
	"os"
	"strings"
	"testing"

	"catcam/internal/analysis/analysistest"
	"catcam/internal/analysis/directives"
	"catcam/internal/analysis/framework"
)

func TestDirectives(t *testing.T) {
	analysistest.Run(t, []*framework.Analyzer{directives.Analyzer}, "directive")
}

// TestMessageNamesEveryVerb checks that a malformed directive's finding
// lists every verb the framework accepts, with its argument, so the
// message cannot fall behind the verb table.
func TestMessageNamesEveryVerb(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.Run(framework.Config{Dir: wd, Patterns: []string{"./testdata/src/directive"}},
		[]*framework.Analyzer{directives.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("no findings")
	}
	for _, d := range diags {
		for _, v := range framework.Verbs {
			if form := strings.TrimSpace(v.Name + " " + v.Arg); !strings.Contains(d.Message, form) {
				t.Errorf("%s: message does not name %q", d.Position, form)
			}
		}
	}
}
