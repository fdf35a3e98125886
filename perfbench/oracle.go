package main

import (
	"bytes"
	"fmt"

	"repro/internal/campaign"
)

// artifacts is a campaign's deterministic artifact pair.
type artifacts struct {
	json, csv []byte
}

// render is Result.JSON plus Result.WriteCSV under one campaign.render
// span.
func render(tr *tracer, res *campaign.Result, parent, trace int) (artifacts, error) {
	root := tr.begin("campaign.render", parent, trace)
	defer tr.end(root)
	id := tr.begin("campaign.Result.JSON", root, trace)
	j, err := res.JSON()
	tr.end(id)
	if err != nil {
		return artifacts{}, err
	}
	var csv bytes.Buffer
	id = tr.begin("campaign.Result.WriteCSV", root, trace)
	err = res.WriteCSV(&csv)
	tr.end(id)
	if err != nil {
		return artifacts{}, err
	}
	return artifacts{j, csv.Bytes()}, nil
}

// sameBytes is the byte oracle every workload applies: got must equal
// the reference byte for byte.
func sameBytes(what string, want, got artifacts) error {
	for _, f := range []struct {
		kind      string
		want, got []byte
	}{{"JSON", want.json, got.json}, {"CSV", want.csv, got.csv}} {
		if !bytes.Equal(f.want, f.got) {
			at := 0
			for at < len(f.want) && at < len(f.got) && f.want[at] == f.got[at] {
				at++
			}
			return fmt.Errorf("%s: %s artifact differs from the reference (%d vs %d bytes, first difference at byte %d)",
				what, f.kind, len(f.got), len(f.want), at)
		}
	}
	return nil
}
