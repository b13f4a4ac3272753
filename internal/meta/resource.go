package meta

import (
	"fmt"
	"strings"

	"starts/internal/query"
	"starts/internal/soif"
)

// ResourceType is the SOIF template type of a resource description.
const ResourceType = "SResource"

// ResourceEntry points a metasearcher at one source of a resource: the
// source's name, the URL where its metadata-attribute object lives, and
// the format that object is delivered in (Section 4.3.3 has resources
// export "the URLs where the metadata attributes for the sources can be
// accessed and the format of this data").
type ResourceEntry struct {
	SourceID    string
	MetadataURL string
	// Format names the metadata encoding; empty means FormatSOIF.
	Format string
}

// The formats this implementation serves.
const (
	FormatSOIF = "soif"
	FormatJSON = "json"
)

// Resource is the contact information a resource exports: its list of
// sources and where to obtain each source's metadata. From here a
// metasearcher bootstraps everything else — metadata, content summaries,
// and finally queries.
type Resource struct {
	Entries []ResourceEntry
}

// ToSOIF encodes the resource as an @SResource object in the layout of
// the paper's Example 12.
func (r *Resource) ToSOIF() *soif.Object {
	o := soif.New(ResourceType)
	o.Add("Version", query.Version)
	lines := make([]string, len(r.Entries))
	for i, e := range r.Entries {
		lines[i] = e.SourceID + " " + e.MetadataURL
		if e.Format != "" && e.Format != FormatSOIF {
			lines[i] += " " + e.Format
		}
	}
	o.Add("SourceList", strings.Join(lines, "\n"))
	return o
}

// Marshal encodes the resource to SOIF bytes.
func (r *Resource) Marshal() ([]byte, error) {
	return soif.Marshal(r.ToSOIF())
}

// ParseResource decodes an @SResource object from SOIF bytes.
func ParseResource(data []byte) (*Resource, error) {
	o, err := soif.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return ResourceFromSOIF(o)
}

// ResourceFromSOIF decodes a resource description from a SOIF object.
func ResourceFromSOIF(o *soif.Object) (*Resource, error) {
	if !strings.EqualFold(o.Type, ResourceType) {
		return nil, fmt.Errorf("meta: expected @%s object, found @%s", ResourceType, o.Type)
	}
	r := &Resource{}
	v, ok := o.Get("SourceList")
	if !ok {
		return nil, fmt.Errorf("meta: @%s object has no SourceList", ResourceType)
	}
	for _, line := range strings.Split(v, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		toks := strings.Fields(line)
		if len(toks) != 2 && len(toks) != 3 {
			return nil, fmt.Errorf("meta: SourceList line %q must be `source-id metadata-url [format]`", line)
		}
		e := ResourceEntry{SourceID: toks[0], MetadataURL: toks[1]}
		if len(toks) == 3 {
			e.Format = strings.ToLower(toks[2])
		}
		r.Entries = append(r.Entries, e)
	}
	if len(r.Entries) == 0 {
		return nil, fmt.Errorf("meta: resource exports no sources")
	}
	return r, nil
}
