package spec

import (
	"strings"
	"testing"
)

// TestMarkdownCoversEveryRegisteredKind: kindSections is a hand-ordered
// list, so a newly introduced component kind would silently fall out of the
// generated SPEC.md (as the fault kind once did). Every kind with at least
// one registered component must have a section, and every registered
// component must appear in the rendered page.
func TestMarkdownCoversEveryRegisteredKind(t *testing.T) {
	sectioned := make(map[Kind]bool, len(kindSections))
	for _, sec := range kindSections {
		if sectioned[sec.Kind] {
			t.Errorf("kind %q has two sections", sec.Kind)
		}
		sectioned[sec.Kind] = true
	}
	regMu.RLock()
	kinds := make([]Kind, 0, len(regOrder))
	for kind := range regOrder {
		kinds = append(kinds, kind)
	}
	regMu.RUnlock()
	page := Markdown()
	for _, kind := range kinds {
		if !sectioned[kind] {
			t.Errorf("registered kind %q has no kindSections entry; SPEC.md omits it", kind)
			continue
		}
		for _, name := range Names(kind) {
			if !strings.Contains(page, "### `"+name+"`") {
				t.Errorf("%s component %q missing from generated markdown", kind, name)
			}
		}
	}
}

// TestMarkdownListsEveryConfigPath: SPEC.md's configuration paths table
// names every leaf path of a fully populated Config's encoding.
func TestMarkdownListsEveryConfigPath(t *testing.T) {
	page := Markdown()
	for _, path := range sortedKeys(fullLeaves(t)) {
		if !strings.Contains(page, "| `"+path+"` |") {
			t.Errorf("SPEC.md's configuration paths table omits %s", path)
		}
	}
}
