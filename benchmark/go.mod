module catcam/benchmark

go 1.22

require catcam v0.0.0

replace catcam => ../
