// Package cli centralizes the conventions shared by the repo's checker
// commands (graph2lint, graph2verify, graph2rewrite): the 0/1/2 exit-code
// contract, -only subset selection over a named suite, C-source argument
// collection, and the base-name check of commands that write one output
// file per input (graph2rewrite and graph2par). The commands used to
// carry private copies of this plumbing; keeping it here means a flag
// behaves identically no matter which binary it is typed at.
package cli

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The exit-code contract every checker command follows.
const (
	// ExitClean: no findings; the tree/corpus is clean.
	ExitClean = 0
	// ExitFindings: the command ran to completion and found violations
	// (lint diagnostics, unsafe loops). CI steps that expect findings use
	// `cmd || [ $? -eq 1 ]` to treat this as success.
	ExitFindings = 1
	// ExitError: an operational failure — bad flags, unreadable or
	// unparseable input — before a trustworthy answer existed.
	ExitError = 2
)

// SelectOnly resolves a comma-separated -only value against a named item
// suite, preserving the user's order. An empty value selects everything.
// The error for an unknown name lists the available names sorted, prefixed
// by kind (e.g. `unknown check "foo" (have alias, clauses, ...)`).
func SelectOnly[T any](items []T, name func(T) string, only, kind string) ([]T, error) {
	if only == "" {
		return items, nil
	}
	byName := make(map[string]T, len(items))
	for _, it := range items {
		byName[name(it)] = it
	}
	var picked []T
	for _, want := range strings.Split(only, ",") {
		want = strings.TrimSpace(want)
		it, ok := byName[want]
		if !ok {
			names := make([]string, 0, len(items))
			for _, have := range items {
				names = append(names, name(have))
			}
			sort.Strings(names)
			return nil, fmt.Errorf("unknown %s %q (have %s)", kind, want, strings.Join(names, ", "))
		}
		picked = append(picked, it)
	}
	return picked, nil
}

// CollectSources expands file and directory arguments into a sorted,
// deduplicated list of .c files (directories are walked recursively).
func CollectSources(args []string) ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(p string) {
		p = filepath.ToSlash(p)
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			add(arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".c") {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// UniqueBaseNames returns an error naming two distinct input paths that
// share a base name. A command that writes one output file per input
// into one directory, named after the input's base name, calls it before
// writing anything: otherwise the later input's file silently replaces
// the earlier one's. A path given twice is one input, not a clash.
func UniqueBaseNames(paths []string) error {
	seen := make(map[string]string, len(paths))
	for _, p := range paths {
		p = filepath.Clean(p)
		base := filepath.Base(p)
		if prev, ok := seen[base]; ok && prev != p {
			return fmt.Errorf("%s and %s share the base name %s, so their output files would overwrite each other", prev, p, base)
		}
		seen[base] = p
	}
	return nil
}
