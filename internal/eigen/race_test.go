//go:build race

package eigen_test

func init() { corpusStride = 4 }
