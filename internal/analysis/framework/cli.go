package framework

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Main is the catcam-lint command line:
//
//	catcam-lint [-tags t1,t2] [-json] packages...
//
// It runs the analyzers over the matched packages (see Run) from the
// working directory and prints the findings to stderr, or as a JSON
// array to stdout under -json. Main never returns; it exits 0 when
// clean, 2 on findings, 1 on errors.
func Main(analyzers []*Analyzer) {
	fs := flag.NewFlagSet("catcam-lint", flag.ContinueOnError)
	tags := fs.String("tags", "", "comma-separated build tags")
	jsonOut := fs.Bool("json", false, "print findings as a JSON array on stdout")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: catcam-lint [-tags taglist] [-json] packages...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(1)
	}
	if fs.NArg() == 0 {
		fs.Usage()
		os.Exit(1)
	}
	cfg := Config{Patterns: fs.Args()}
	if *tags != "" {
		cfg.Tags = strings.Split(*tags, ",")
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	cfg.Dir = wd
	diags, err := Run(cfg, analyzers)
	if err != nil {
		fatal(err)
	}
	w := io.Writer(os.Stderr)
	if *jsonOut {
		w = os.Stdout
	}
	if err := writeDiags(w, wd, diags, *jsonOut); err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// jsonDiag is the machine-readable finding shape `catcam-lint -json`
// emits, one element per finding, stable across releases so CI tooling
// can depend on it.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

// writeDiags prints diags on w, one `file:line:col: analyzer: message`
// line each (the form .github/catcam-lint-matcher.json parses) or, with
// jsonOut, as one JSON array ("[]" when empty, so consumers can always
// range). File names under dir are printed relative to it.
func writeDiags(w io.Writer, dir string, diags []FlatDiag, jsonOut bool) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		if rel, err := filepath.Rel(dir, d.Position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Position.Filename = rel
		}
		if !jsonOut {
			if _, err := fmt.Fprintln(w, d); err != nil {
				return err
			}
			continue
		}
		out = append(out, jsonDiag{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Analyzer: d.Analyzer,
			Category: d.Category,
			Message:  d.Message,
		})
	}
	if !jsonOut {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
