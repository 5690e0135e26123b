package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// decodeAs runs decodeBody over data as a POST body into a fresh T.
func decodeAs[T any](data []byte) (T, error) {
	var v T
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
	err := decodeBody(httptest.NewRecorder(), r, &v)
	return v, err
}

// checkReencodes: a body decodeBody accepts into T, re-encoded with
// json.Marshal, is accepted again and decodes to the same value.
func checkReencodes[T any](t *testing.T, data []byte) {
	t.Helper()
	first, err := decodeAs[T](data)
	if err != nil {
		return
	}
	re, err := json.Marshal(first)
	if err != nil {
		t.Fatalf("accepted %T does not re-encode: %v", first, err)
	}
	second, err := decodeAs[T](re)
	if err != nil {
		t.Fatalf("re-encoded %T %s rejected: %v", first, re, err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("%T decodes to %+v, its re-encoding %s to %+v", first, first, re, second)
	}
}

// FuzzDecodeBody: decodeBody is the one decoder for every /v1/* body,
// so for both request types an accepted body must mean exactly its
// decoded value — re-encoding it changes nothing the handlers see.
// The seeds pin the strict side too: trailing data and unknown fields
// are rejected by both types.
func FuzzDecodeBody(f *testing.F) {
	query := []byte(`{"suite":"nas","k":6,"features":"default","target":"Atom"}`)
	gaJob := []byte(`{"kind":"ga","suite":"nr","population":20,"generations":5,"mutationProb":0.05,"targets":["Atom","Sandy Bridge"],"seed":7}`)
	trailing := []byte(`{"suite":"nas"} {"suite":"nr"}`)
	unknown := []byte(`{"suite":"nas","bogus":1}`)
	for _, seed := range [][]byte{query, gaJob, trailing, unknown} {
		f.Add(seed)
	}
	if _, err := decodeAs[queryRequest](query); err != nil {
		f.Fatalf("valid query rejected: %v", err)
	}
	if job, err := decodeAs[jobRequest](gaJob); err != nil || job.Seed == nil || len(job.Targets) != 2 {
		f.Fatalf("valid GA job decoded to %+v, %v", job, err)
	}
	for _, bad := range [][]byte{trailing, unknown} {
		_, qErr := decodeAs[queryRequest](bad)
		_, jErr := decodeAs[jobRequest](bad)
		if qErr == nil || jErr == nil {
			f.Fatalf("%s accepted (query error %v, job error %v)", bad, qErr, jErr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReencodes[queryRequest](t, data)
		checkReencodes[jobRequest](t, data)
	})
}
