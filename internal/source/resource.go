package source

import (
	"fmt"
	"sort"
	"strings"

	"starts/internal/query"
	"starts/internal/result"
)

// Resource groups sources behind one contact point, as in Figure 1 of the
// paper. Queries are submitted to one source and may name other local
// sources to evaluate at; the resource merges those results and eliminates
// duplicate documents by linkage, something an outside metasearcher
// querying the sources independently could not do as reliably.
type Resource struct {
	order   []string
	sources map[string]*Source
}

// NewResource returns an empty resource.
func NewResource() *Resource {
	return &Resource{sources: map[string]*Source{}}
}

// Add registers a source; source IDs must be unique within the resource.
func (r *Resource) Add(s *Source) error {
	if _, dup := r.sources[s.ID()]; dup {
		return fmt.Errorf("resource: source %q already registered", s.ID())
	}
	r.sources[s.ID()] = s
	r.order = append(r.order, s.ID())
	return nil
}

// Source returns a source by ID.
func (r *Resource) Source(id string) (*Source, bool) {
	s, ok := r.sources[id]
	return s, ok
}

// SourceIDs lists the resource's sources in registration order.
func (r *Resource) SourceIDs() []string {
	return append([]string(nil), r.order...)
}

// Search evaluates a query at the target source plus any additional local
// sources the query names (Query.Sources), merging the per-source results
// and collapsing duplicate documents: a document present at several
// sources appears once, listing every source that held it, with its best
// score. The header echoes the intersection-style actual query of the
// target source.
func (r *Resource) Search(target string, q *query.Query) (*result.Results, error) {
	ids, err := r.resolveSources(target, q.Sources)
	if err != nil {
		return nil, err
	}
	merged := &result.Results{Sources: ids}
	byURL := map[string]*result.Document{}
	var orderURLs []string
	for i, id := range ids {
		src := r.sources[id]
		res, err := src.Search(q)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			// The target source's actual query describes the evaluation.
			merged.ActualFilter = res.ActualFilter
			merged.ActualRanking = res.ActualRanking
		}
		for _, d := range res.Documents {
			url := d.Linkage()
			if prev, dup := byURL[url]; dup {
				prev.Sources = append(prev.Sources, id)
				if d.RawScore > prev.RawScore {
					prev.RawScore, prev.TermStats = d.RawScore, d.TermStats
					prev.Size, prev.Count = d.Size, d.Count // tf is over this length
				}
				continue
			}
			byURL[url] = d
			orderURLs = append(orderURLs, url)
		}
	}
	for _, url := range orderURLs {
		merged.Documents = append(merged.Documents, byURL[url])
	}
	// Re-sort by score and re-apply the result cap across sources.
	sort.SliceStable(merged.Documents, func(i, j int) bool {
		return merged.Documents[i].RawScore > merged.Documents[j].RawScore
	})
	if max := q.EffectiveMaxResults(); len(merged.Documents) > max {
		merged.Documents = merged.Documents[:max]
	}
	return merged, nil
}

// resolveSources validates the target and additional source names. The
// target is always evaluated first; duplicates collapse.
func (r *Resource) resolveSources(target string, extra []string) ([]string, error) {
	if _, ok := r.sources[target]; !ok {
		return nil, fmt.Errorf("resource: unknown target source %q (have %s)", target, strings.Join(r.order, ", "))
	}
	ids := []string{target}
	seen := map[string]bool{target: true}
	for _, id := range extra {
		if seen[id] {
			continue
		}
		if _, ok := r.sources[id]; !ok {
			return nil, fmt.Errorf("resource: query names unknown source %q", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	return ids, nil
}
