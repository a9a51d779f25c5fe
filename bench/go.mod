module simquery/bench

go 1.22

require simquery v0.0.0

replace simquery => ../
