package daemon

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	fence = regexp.MustCompile("(?s)```.*?```")
	span  = regexp.MustCompile("`([^`]+)`")
)

// AuditFlags checks the flags of the daemon newFlags defines against
// the docs, the Makefile, the scripts and the skills under root. A flag
// stays when table gives it a reason — a deployment setting or a paper
// parameter — or when a command line or a back-ticked span there
// passes it a value other than its default (a boolean flag: names it).
// A command line runs the daemon by `go run ./cmd/NAME` or as a built
// /tmp/NAME, with its `\` continuations. AuditFlags returns one problem
// per flag nothing sets, per table entry that is not a flag, and per
// command line the daemon's flags do not parse.
func AuditFlags(newFlags func() *flag.FlagSet, table map[string]string, root string) ([]string, error) {
	defined := newFlags()
	name := defined.Name()
	cmdline := regexp.MustCompile(`(?:go run \./cmd/|/tmp/)` + regexp.QuoteMeta(name) + `\b((?:[^` + "`" + `#\n\\]|\\\n)*)`)
	set := make(map[string]bool)
	// parse parses args as the daemon does, up to the first non-flag,
	// and marks the flags it moves off their defaults.
	parse := func(args []string) error {
		fs := newFlags()
		fs.Init(name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse(args)
		fs.Visit(func(f *flag.Flag) { set[f.Name] = set[f.Name] || f.Value.String() != f.DefValue })
		return err
	}
	var files, problems []string
	for _, pattern := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", "scripts/*", ".claude/skills/*/*"} {
		matches, _ := filepath.Glob(filepath.Join(root, pattern)) // the patterns are well-formed
		files = append(files, matches...)
	}
	for _, path := range files {
		body, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		text := string(body)
		for _, m := range cmdline.FindAllStringSubmatchIndex(text, -1) {
			args := strings.Fields(strings.ReplaceAll(text[m[2]:m[3]], "\\\n", " "))
			for i := range args {
				args[i] = strings.Trim(args[i], `"'`)
			}
			if err := parse(args); err != nil {
				line := strings.Count(text[:m[0]], "\n") + 1
				problems = append(problems, fmt.Sprintf("%s:%d: %s %s: %v", path, line, name, strings.Join(args, " "), err))
			}
		}
		for _, s := range span.FindAllStringSubmatch(fence.ReplaceAllString(text, ""), -1) {
			words := strings.Fields(s[1])
			for i := range words {
				_ = parse(words[i:]) // prose, and other commands' flags: not this daemon's to parse
			}
		}
	}
	defined.VisitAll(func(f *flag.Flag) {
		if table[f.Name] == "" && !set[f.Name] {
			problems = append(problems, fmt.Sprintf("-%s: no reason in the table, and nothing sets it", f.Name))
		}
	})
	for flagName := range table {
		if defined.Lookup(flagName) == nil {
			problems = append(problems, fmt.Sprintf("table entry -%s is not a %s flag", flagName, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}
