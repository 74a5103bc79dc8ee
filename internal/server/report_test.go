package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"kumquat"
	"kumquat/internal/server/api"
	"kumquat/internal/server/client"
)

// fill sets every exported leaf under v to a non-zero value. Integers get
// 3, which is also a valid Mode (pipelined).
func fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i))
			}
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		fill(v.Index(0))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(key)
		fill(val)
		v.SetMapIndex(key, val)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(3)
	case reflect.String:
		v.SetString("x")
	default:
		panic("fill: teach me " + v.Kind().String())
	}
}

// roundTripFunc serves a client's requests from a function, in process.
type roundTripFunc func(*http.Request) (*http.Response, error)

// RoundTrip calls f.
func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestExecuteTrailerIsTheRunRecord: the execute trailer is the run record
// itself. Every exported field of kumquat.RunReport — promoted ones
// included — is set non-zero, sent through finishExecute into a recorded
// response, and decoded on the client's trailer path; what arrives must
// be what left, minus Output (the response body carries the output). A
// field the encoding drops — a `json:"-"` tag, two embedded structs
// colliding on one key — fails here.
func TestExecuteTrailerIsTheRunRecord(t *testing.T) {
	var run kumquat.RunReport
	fill(reflect.ValueOf(&run).Elem())
	hc := &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		rec := httptest.NewRecorder()
		rec.Header().Set("Trailer", api.ReportTrailer+", "+api.ErrorTrailer)
		rec.WriteHeader(http.StatusOK)
		finishExecute(rec, nil, false, &api.ExecuteReport{RunReport: run}, nil)
		resp := rec.Result()
		resp.Request = req
		return resp, nil
	})}
	got, err := client.New("http://localhost", client.WithHTTPClient(hc)).
		Execute(context.Background(), "sort", client.ExecuteOptions{}, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := run
	want.Output = ""
	if !reflect.DeepEqual(got.RunReport, want) {
		t.Fatalf("trailer lost part of the run record\nsent %+v\ngot  %+v", want, got.RunReport)
	}
	if got.Cluster != nil || got.Trace != nil {
		t.Fatalf("local untraced run grew service blocks: %+v / %+v", got.Cluster, got.Trace)
	}
}
