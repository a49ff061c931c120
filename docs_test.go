package rsse_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocLinks is the documentation link checker CI runs: every
// markdown link in the project docs that points at a local file must
// name a file that exists, and every fragment (#anchor) must match a
// heading of its target document under GitHub's slug rules. Stale
// cross-references fail here instead of rotting.
func TestDocLinks(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md", "CHANGES.md", "ROADMAP.md"}
	for _, doc := range docs {
		blob, err := os.ReadFile(doc)
		if err != nil {
			if doc == "README.md" || doc == "ARCHITECTURE.md" {
				t.Fatalf("%s must exist: %v", doc, err)
			}
			continue
		}
		for _, link := range markdownLinks(string(blob)) {
			if err := checkLink(doc, link); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, link, err)
			}
		}
	}
}

// checkLink validates one link target relative to the doc that holds it.
func checkLink(doc, link string) error {
	if strings.HasPrefix(link, "http://") || strings.HasPrefix(link, "https://") ||
		strings.HasPrefix(link, "mailto:") {
		return nil // external; not this checker's job
	}
	target, frag, _ := strings.Cut(link, "#")
	if target == "" {
		target = doc // same-document fragment
	} else {
		target = filepath.Join(filepath.Dir(doc), target)
	}
	if _, err := os.Stat(target); err != nil {
		return fmt.Errorf("target does not exist: %w", err)
	}
	if frag == "" {
		return nil
	}
	if !strings.HasSuffix(target, ".md") {
		return fmt.Errorf("fragment on non-markdown target %s", target)
	}
	blob, err := os.ReadFile(target)
	if err != nil {
		return err
	}
	for _, h := range markdownHeadings(string(blob)) {
		if slugify(h) == frag {
			return nil
		}
	}
	return fmt.Errorf("no heading in %s slugifies to %q", target, frag)
}

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// markdownLinks extracts inline link targets, ignoring code fences and
// inline code spans so bracketed prose inside examples never trips the
// checker.
func markdownLinks(md string) []string {
	var out []string
	for _, m := range linkRE.FindAllStringSubmatch(stripCode(md), -1) {
		out = append(out, m[1])
	}
	return out
}

// markdownHeadings lists the heading texts of a document.
func markdownHeadings(md string) []string {
	var out []string
	for _, line := range strings.Split(stripCode(md), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			out = append(out, strings.TrimSpace(strings.TrimLeft(trimmed, "#")))
		}
	}
	return out
}

// stripCode blanks out fenced code blocks and inline code spans.
func stripCode(md string) string {
	var b strings.Builder
	inFence := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			b.WriteString("\n")
			continue
		}
		if inFence {
			b.WriteString("\n")
			continue
		}
		// Blank inline code spans.
		for {
			start := strings.IndexByte(line, '`')
			if start < 0 {
				break
			}
			end := strings.IndexByte(line[start+1:], '`')
			if end < 0 {
				break
			}
			line = line[:start] + strings.Repeat(" ", end+2) + line[start+1+end+1:]
		}
		b.WriteString(line)
		b.WriteString("\n")
	}
	return b.String()
}

// slugify applies GitHub's heading-anchor rules: lowercase, drop
// punctuation, spaces to hyphens.
func slugify(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
