// The benchmark is a module of its own so that the product's `go build ./...`
// and `go test ./...` never see it; the connquery/ path prefix is what lets it
// import connquery/internal/... through the replace below.
module connquery/benchmark

go 1.24

require connquery v0.0.0

replace connquery => ../
